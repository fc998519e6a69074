package core

import (
	"errors"
	"fmt"
	"testing"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/transport"
)

// TestTornRecoveryConverges drives the exact tear Section 3.1.2's
// two-phase install exists for: a recovering incarnation that dies
// after streaming its doubtful tail to one server with CopyLog but
// before any InstallCopies commits. The orphaned staged copies carry a
// real epoch (5 here) that was durably consumed from the generator —
// yet none of them may ever become part of the log, the next
// incarnation must take a higher epoch, and a stale lower-epoch copy
// left behind on a server that missed a later recovery must never be
// surfaced by a read (the merge keeps only highest-epoch holders, and
// streamRange refuses every record with rec.Epoch < wantEpoch).
func TestTornRecoveryConverges(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)

	c := newCluster(t, "s1", "s2", "s3")
	const id = record.ClientID(3) // offset 0: write set s1, s2

	// Incarnation 1: commit a prefix.
	l1 := mustOpen(t, c, id, 2)
	committed := make(map[record.LSN]string)
	for i := 0; i < 6; i++ {
		data := fmt.Sprintf("torn-%d", i)
		lsn, err := l1.WriteLog([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		committed[lsn] = data
	}
	if err := l1.Force(); err != nil {
		t.Fatal(err)
	}
	e1 := l1.Epoch()
	high := l1.EndOfLog()
	l1.Close()

	// A write for high+1 reached s1 just before the client died: a
	// present epoch-1 record with no second copy anywhere.
	phantom := high + 1
	if err := c.stores["s1"].Append(id, record.Record{
		LSN: phantom, Epoch: e1, Present: true, Data: []byte("phantom"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.stores["s1"].Force(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2 recovers at epoch 5 and is torn mid-install: the
	// doubtful tail (including the phantom, re-copied under epoch 5)
	// has been staged on the first write-set server when the client
	// dies, so no InstallCopies ever commits the stage.
	c.seedEpoch(id, 4)
	var ep2 transport.Endpoint
	faultpoint.Arm(FPInitCopied, 1, func() { ep2.Close() })
	if _, err := c.openClient(id, 2, func(cfg *Config) { ep2 = cfg.Endpoint }); err == nil {
		t.Fatal("torn Open unexpectedly succeeded")
	}
	faultpoint.Disarm(FPInitCopied)
	if !faultpoint.Fired(FPInitCopied) {
		t.Fatal("crash point client.init.copied never fired")
	}

	// Incarnation 3 recovers without s1: its quorum is s2+s3, so the
	// phantom is uncovered and resolves not-present, and the tail is
	// re-copied under the new epoch onto s2 and s3 only.
	c.stop("s1")
	l3 := mustOpen(t, c, id, 2)
	if got := l3.Epoch(); got <= 5 {
		t.Fatalf("epoch %d: must exceed the torn incarnation's 5", got)
	}
	audit := func(l *ReplicatedLog, when string) {
		t.Helper()
		for lsn, want := range committed {
			data, err := l.ReadLog(lsn)
			if err != nil || string(data) != want {
				t.Fatalf("%s: ReadLog(%d) = %q, %v, want %q", when, lsn, data, err, want)
			}
		}
		if _, err := l.ReadLog(phantom); !errors.Is(err, ErrNotPresent) {
			t.Fatalf("%s: phantom LSN %d: %v, want ErrNotPresent", when, phantom, err)
		}
	}
	audit(l3, "after torn recovery")

	// The recovered log is fully usable: commit through it, pushing
	// the end of log past the phantom so later recoveries leave s1's
	// stale epoch-1 copy in place rather than re-copying over it.
	for i := 0; i < 6; i++ {
		data := fmt.Sprintf("post-%d", i)
		lsn, err := l3.WriteLog([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		committed[lsn] = data
	}
	if err := l3.Force(); err != nil {
		t.Fatal(err)
	}
	audit(l3, "after post-recovery writes")
	l3.Close()

	// Incarnation 4 recovers with s1 back. s1 still reports the
	// phantom as a present epoch-1 record in its interval list, and
	// still holds the orphaned epoch-5 stage; the merge's
	// highest-epoch-wins sweep (backstopped by streamRange's
	// rec.Epoch < wantEpoch check) must keep both out of the log, so
	// the not-present outcome sticks.
	c.start("s1")
	l4 := mustOpen(t, c, id, 2)
	defer l4.Close()
	audit(l4, "after s1 rejoins")
}
