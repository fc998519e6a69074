package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// TestWriteLogDeltaBoundUnderConcurrency pins the δ invariant that the
// Section 3.1.2 recovery argument depends on: the client never has
// more than Delta unacknowledged records outstanding, even with many
// concurrent writers. The pre-fix code checked the bound with an `if`
// that was not re-checked after the implicit Force released and
// re-acquired the lock, so concurrent writers could all pass the check
// and push the buffer past δ — recovery would then re-copy too short a
// doubtful tail.
func TestWriteLogDeltaBoundUnderConcurrency(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	// A little network latency widens the window between the δ check
	// and the append: force rounds take milliseconds, so writers pile
	// up at the bound.
	c.net.SetFaults(transport.Faults{FixedDelay: 2 * time.Millisecond})
	const delta = 4
	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = delta })
	defer l.Close()

	checkBound := func() {
		l.mu.Lock()
		n := len(l.outstanding)
		l.mu.Unlock()
		if n > delta {
			t.Errorf("outstanding = %d records, exceeds Delta = %d", n, delta)
		}
	}

	done := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-done:
				return
			default:
				checkBound()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const writers, perWriter = 12, 15
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.WriteLog([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				checkBound()
			}
		}()
	}
	wg.Wait()
	close(done)
	samplerWG.Wait()

	if err := l.Force(); err != nil {
		t.Fatalf("final force: %v", err)
	}
}

// TestDialConcurrentHandshake pins the dial race: a second caller must
// never be handed a session whose handshake is still in flight — on
// the pre-fix code its very first call failed with ErrNotEstablished
// because records hit the wire before the three-way handshake
// completed.
func TestDialConcurrentHandshake(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	// Delay makes each handshake take ≥ 2 one-way latencies, widening
	// the race window between the two dialers.
	c.net.SetFaults(transport.Faults{FixedDelay: 3 * time.Millisecond})
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	for iter := 0; iter < 10; iter++ {
		// Retire the existing session so the next dial must handshake
		// from scratch.
		l.mu.Lock()
		old := l.sessions["s1"]
		delete(l.sessions, "s1")
		l.mu.Unlock()
		if old != nil {
			old.close()
		}

		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g == 1 {
					// Let the first dialer start the handshake so the
					// second joins it mid-flight.
					time.Sleep(time.Millisecond)
				}
				sess, err := l.dial("s1")
				if err != nil {
					errs[g] = fmt.Errorf("dial: %w", err)
					return
				}
				if !sess.peer.Established() {
					errs[g] = errors.New("dial returned an unestablished session")
					return
				}
				if _, err := sess.call(wire.TIntervalListReq, (&wire.IntervalListPayload{}).Encode()); err != nil {
					errs[g] = fmt.Errorf("call on dialed session: %w", err)
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("iter %d, dialer %d: %v", iter, g, err)
			}
		}
	}
}

// TestForceStatsConsistentAfterClose pins the stats fix: a Force call
// rejected with ErrClosed is not protocol activity and must not bump
// the Forces counter, keeping Forces ≥ ForceRounds + GroupCommits an
// invariant.
func TestForceStatsConsistentAfterClose(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)

	for i := 0; i < 3; i++ {
		if _, err := l.WriteLog([]byte("r")); err != nil {
			t.Fatal(err)
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Forces < before.ForceRounds+before.GroupCommits {
		t.Fatalf("invariant broken while open: %+v", before)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Force(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Force after Close = %v, want ErrClosed", err)
		}
	}
	after := l.Stats()
	if after.Forces != before.Forces || after.ForceRounds != before.ForceRounds || after.GroupCommits != before.GroupCommits {
		t.Fatalf("ErrClosed forces changed stats: before %+v, after %+v", before, after)
	}
}

// replyFirstEndpoint forces the lost-reply interleaving: Send of the
// first packet of the armed request type returns only after the
// client's receive pump has consumed the reply to it (the pump has come
// back to Recv for the next packet). A session that registers its
// reply sink only after Send returns finds the reply already gone.
type replyFirstEndpoint struct {
	transport.Endpoint

	mu      sync.Mutex
	arm     wire.Type     // request type to hold; 0 once it has been held
	want    uint64        // Seq of the held request
	replied bool          // the pump has taken the reply to want
	done    chan struct{} // closed when the pump comes back after the reply
}

func (e *replyFirstEndpoint) Send(to string, data []byte) error {
	pkt, err := wire.Decode(data)
	e.mu.Lock()
	hold := err == nil && e.arm != 0 && pkt.Type == e.arm
	if hold {
		e.arm, e.want, e.done = 0, pkt.Seq, make(chan struct{})
	}
	done := e.done
	e.mu.Unlock()
	if err := e.Endpoint.Send(to, data); err != nil {
		return err
	}
	if hold {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	return nil
}

func (e *replyFirstEndpoint) Recv(timeout time.Duration) (transport.Packet, error) {
	e.mu.Lock()
	if e.replied {
		e.replied = false
		close(e.done)
	}
	e.mu.Unlock()
	p, err := e.Endpoint.Recv(timeout)
	if err == nil {
		if pkt, derr := wire.Decode(p.Data); derr == nil {
			e.mu.Lock()
			if e.want != 0 && pkt.RespTo == e.want {
				e.want, e.replied = 0, true
			}
			e.mu.Unlock()
		}
	}
	return p, err
}

// TestReplyBeforeSendReturnsIsNotLost pins the lost-reply race: a
// session registered a call's reply channel (and a read stream's chunk
// sink) only after peer.Send returned, so a reply that arrived first
// was dropped and the call sat out a whole CallTimeout before retrying.
// The endpoint above makes the reply win every time; the call and the
// stream must still complete well inside one timeout.
func TestReplyBeforeSendReturnsIsNotLost(t *testing.T) {
	const callTimeout = time.Second
	hold := func(ty wire.Type) func(*Config) {
		return func(cfg *Config) {
			cfg.Endpoint = &replyFirstEndpoint{Endpoint: cfg.Endpoint, arm: ty}
			cfg.CallTimeout = callTimeout
		}
	}
	t.Run("call", func(t *testing.T) {
		c := newCluster(t, "s1", "s2", "s3")
		start := time.Now()
		l := mustOpen(t, c, 1, 2, hold(wire.TIntervalListReq))
		defer l.Close()
		if d := time.Since(start); d > callTimeout/2 {
			t.Fatalf("Open took %v: the interval-list reply that beat Send was dropped", d)
		}
	})
	t.Run("stream", func(t *testing.T) {
		c := newCluster(t, "s1", "s2", "s3")
		w := mustOpen(t, c, 1, 2)
		for i := 0; i < 5; i++ {
			if _, err := w.WriteLog([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Force(); err != nil {
			t.Fatal(err)
		}
		end := w.EndOfLog()
		w.Close()

		l := mustOpen(t, c, 1, 2, hold(wire.TReadStreamReq))
		defer l.Close()
		start := time.Now()
		cur, err := l.OpenCursor(1, Forward)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		for lsn := record.LSN(1); lsn <= end; lsn++ {
			rec, err := cur.Next()
			if err != nil || rec.LSN != lsn {
				t.Fatalf("Next = %v, %v; want LSN %d", rec, err, lsn)
			}
		}
		if d := time.Since(start); d > callTimeout/2 {
			t.Fatalf("scan took %v: the first stream chunk that beat Send was dropped", d)
		}
	})
}
