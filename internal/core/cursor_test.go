package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
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

// TestCursorServesOutstandingAndTruncated checks the local task paths:
// unacknowledged records come from the client's buffer, truncated
// positions come back as markers, without any server round trip.
func TestCursorServesOutstandingAndTruncated(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
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
}
