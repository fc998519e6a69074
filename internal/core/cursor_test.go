package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// writeForced appends count records through l, forcing every batch, and
// returns the payload written per LSN.
func writeForced(t *testing.T, l *ReplicatedLog, count int) map[record.LSN][]byte {
	t.Helper()
	written := make(map[record.LSN][]byte)
	for i := 0; i < count; i++ {
		data := []byte(fmt.Sprintf("payload-%d", i))
		lsn, err := l.WriteLog(data)
		if err != nil {
			t.Fatal(err)
		}
		written[lsn] = data
		if (i+1)%10 == 0 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	return written
}

func TestCursorForwardScanAndSeek(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	written := writeForced(t, l, 60)
	end := l.EndOfLog()

	cur, err := l.OpenCursor(1, Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for want := record.LSN(1); want <= end; want++ {
		rec, err := cur.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", want, err)
		}
		if rec.LSN != want {
			t.Fatalf("got LSN %d, want %d", rec.LSN, want)
		}
		if data, ok := written[want]; ok {
			if !rec.Present || string(rec.Data) != string(data) {
				t.Fatalf("LSN %d = %v, want %q", want, rec, data)
			}
		} else if rec.Present {
			t.Fatalf("LSN %d present, expected a marker", want)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("Next past end = %v, want ErrBeyondEnd", err)
	}

	// Seek back into the middle and rescan a stretch.
	mid := end / 2
	if err := cur.Seek(mid); err != nil {
		t.Fatal(err)
	}
	for want := mid; want < mid+10 && want <= end; want++ {
		rec, err := cur.Next()
		if err != nil {
			t.Fatalf("Next after Seek at %d: %v", want, err)
		}
		if rec.LSN != want {
			t.Fatalf("after Seek got LSN %d, want %d", rec.LSN, want)
		}
	}
	if err := cur.Seek(0); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("Seek(0) = %v, want ErrBeyondEnd", err)
	}

	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}

	st := l.Stats()
	if st.CursorStreams == 0 {
		t.Fatal("no cursor streams recorded")
	}
	if st.PrefetchHits+st.PrefetchWaits == 0 {
		t.Fatal("no prefetch outcomes recorded")
	}
}

// TestCursorBackwardLossyMidStreamFailover runs the recovery manager's
// scan shape — a backward cursor from the end of the log — over a
// network that drops, duplicates, and reorders packets, and stops one
// write-set holder partway through the scan. The cursor must fail over
// to the surviving holder and deliver every position exactly once, in
// order, with the written payloads: no gaps, no duplicates.
func TestCursorBackwardLossyMidStreamFailover(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	written := writeForced(t, l, 120)
	end := l.EndOfLog()
	ws := l.WriteSet()
	if _, err := l.OpenCursor(end+1, Backward); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("OpenCursor past end = %v, want ErrBeyondEnd", err)
	}

	c.net.SetFaults(transport.Faults{
		DropProb: 0.10,
		DupProb:  0.10,
		MaxDelay: 2 * time.Millisecond, // random delay => reordering
	})
	defer c.net.SetFaults(transport.Faults{})

	cur, err := l.OpenCursor(end, Backward)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	stopAt := end - end/3 // stop a holder a third of the way down
	for want := end; want >= 1; want-- {
		if want == stopAt {
			c.stop(ws[0])
		}
		rec, err := cur.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", want, err)
		}
		if rec.LSN != want {
			t.Fatalf("got LSN %d, want %d (gap or duplicate)", rec.LSN, want)
		}
		if data, ok := written[want]; ok {
			if !rec.Present || string(rec.Data) != string(data) {
				t.Fatalf("LSN %d = %v, want %q", want, rec, data)
			}
		} else if rec.Present {
			t.Fatalf("LSN %d present, expected a marker", want)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("Next below LSN 1 = %v, want ErrBeyondEnd", err)
	}

	st := l.Stats()
	if st.CursorStreams == 0 {
		t.Fatal("no cursor streams recorded")
	}
	t.Logf("streams=%d restarts=%d prefetch hits=%d waits=%d",
		st.CursorStreams, st.StreamRestarts, st.PrefetchHits, st.PrefetchWaits)
}

// TestCursorServesOutstandingAndTruncated checks the local task paths —
// unacknowledged records come from the client's buffer, truncated and
// uncovered positions come back as markers, without any server round
// trip — and that ReadRecord, a one-record step of the same engine,
// answers every position class exactly as cursor Next does: truncated,
// outstanding, uncovered, remote, a not-present marker, beyond the end
// and closed. The burst write path keeps the unforced tail outstanding
// (the streamer would release it in the background).
func TestCursorServesOutstandingAndTruncated(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	burst := func(cfg *Config) { cfg.DisableWriteStream = true }
	l := mustOpen(t, c, 1, 2, burst)
	defer l.Close()

	written := writeForced(t, l, 40)
	// Leave a couple of records unforced (outstanding).
	for i := 0; i < 2; i++ {
		data := []byte(fmt.Sprintf("tail-%d", i))
		lsn, err := l.WriteLog(data)
		if err != nil {
			t.Fatal(err)
		}
		written[lsn] = data
	}
	end := l.EndOfLog()

	// Truncate a prefix; those positions must scan as markers.
	if err := l.TruncatePrefix(10); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	cur, err := l.OpenCursor(1, Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for want := record.LSN(1); want <= end; want++ {
		rec := nextAgrees(t, l, cur, want, seen)
		switch {
		case want < 10:
			if rec.Present {
				t.Fatalf("truncated LSN %d still present", want)
			}
		default:
			if data, ok := written[want]; ok && (!rec.Present || string(rec.Data) != string(data)) {
				t.Fatalf("LSN %d = %v, want %q", want, rec, data)
			}
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("cursor Next past end = %v, want ErrBeyondEnd", err)
	}
	for _, lsn := range []record.LSN{0, end + 1} {
		if _, err := l.ReadRecord(lsn); !errors.Is(err, ErrBeyondEnd) {
			t.Fatalf("ReadRecord(%d) = %v, want ErrBeyondEnd", lsn, err)
		}
	}
	l.Close()
	if _, err := l.OpenCursor(1, Forward); !errors.Is(err, ErrClosed) {
		t.Fatalf("OpenCursor on a closed log = %v, want ErrClosed", err)
	}
	if _, err := l.ReadRecord(end); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadRecord on a closed log = %v, want ErrClosed", err)
	}

	// The next incarnation computes the truncated prefix from the
	// clipped interval lists: those positions are now uncovered.
	l2 := mustOpen(t, c, 1, 2, burst)
	defer l2.Close()
	cur2, err := l2.OpenCursor(1, Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	for want := record.LSN(1); want <= l2.EndOfLog(); want++ {
		nextAgrees(t, l2, cur2, want, seen)
	}
	for _, class := range []string{"truncated", "outstanding", "uncovered", "remote", "marker"} {
		if !seen[class] {
			t.Errorf("no %s position was exercised", class)
		}
	}
}

// nextAgrees advances cur onto want and checks that ReadRecord returns
// the same record, noting the position class carveTask files want under.
func nextAgrees(t *testing.T, l *ReplicatedLog, cur Cursor, want record.LSN, seen map[string]bool) record.Record {
	t.Helper()
	l.mu.Lock()
	class := "remote"
	switch {
	case len(l.outstanding) > 0 && want >= l.outstanding[0].LSN:
		class = "outstanding"
	case want < l.truncated:
		class = "truncated"
	case !l.holders.covered(want):
		class = "uncovered"
	}
	l.mu.Unlock()
	rec, err := cur.Next()
	if err != nil || rec.LSN != want {
		t.Fatalf("%s: Next = %+v, %v; want LSN %d", class, rec, err, want)
	}
	got, err := l.ReadRecord(want)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("%s LSN %d: ReadRecord = %+v, %v; cursor Next = %+v", class, want, got, err, rec)
	}
	if class == "remote" && !rec.Present {
		class = "marker"
	}
	seen[class] = true
	return rec
}

// countingEndpoint counts the packets a client sends, by type.
type countingEndpoint struct {
	transport.Endpoint

	mu   sync.Mutex
	sent map[wire.Type]int
}

func (e *countingEndpoint) Send(to string, data []byte) error {
	if pkt, err := wire.Decode(data); err == nil {
		e.mu.Lock()
		e.sent[pkt.Type]++
		e.mu.Unlock()
	}
	return e.Endpoint.Send(to, data)
}

// TestRestartStreamsDoubtfulWindow checks that initialization reads the
// doubtful window [high-δ+1, high] with the cursor's ranged streams —
// not one TReadForwardReq per LSN — and re-copies it under the new
// epoch.
func TestRestartStreamsDoubtfulWindow(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	w := mustOpen(t, c, 1, 2)
	written := writeForced(t, w, 20) // a history longer than δ = 4
	high := w.EndOfLog()
	w.Close()

	ep := &countingEndpoint{sent: make(map[wire.Type]int)}
	l := mustOpen(t, c, 1, 2, func(cfg *Config) {
		ep.Endpoint = cfg.Endpoint
		cfg.Endpoint = ep
	})
	defer l.Close()
	ep.mu.Lock()
	perRecord := ep.sent[wire.TReadForwardReq]
	ep.mu.Unlock()
	if perRecord != 0 {
		t.Fatalf("restart sent %d TReadForwardReq, want 0", perRecord)
	}
	if st := l.Stats(); st.CursorStreams == 0 {
		t.Fatal("restart opened no read stream")
	}
	for lsn := high - 3; lsn <= high; lsn++ {
		rec, err := l.ReadRecord(lsn)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Present || string(rec.Data) != string(written[lsn]) || rec.Epoch != l.Epoch() {
			t.Fatalf("re-copied LSN %d = %+v, want %q at epoch %d", lsn, rec, written[lsn], l.Epoch())
		}
	}
}
