package core

import (
	"fmt"
	"time"

	"distlog/internal/record"
)

// Direction selects a cursor's scan direction.
type Direction int8

// Scan directions.
const (
	// Forward scans toward the end of the log (ascending LSNs).
	Forward Direction = 0
	// Backward scans toward LSN 1 (descending LSNs) — the order a
	// recovery manager's undo pass wants.
	Backward Direction = 1
)

func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Cursor streams log records in one direction. Next returns every
// position the log covers — not-present markers included, with
// Present == false — so scans skip superseded positions uniformly,
// exactly as a ReadRecord loop would. A cursor is not safe for
// concurrent use; open one per scanning goroutine.
//
// Behind Next sits a pipelined fetch engine: the cursor keeps a window
// of range-fetch tasks in flight (Config.ReadAhead), each covering up
// to Config.ScanSpan LSNs of a single holder segment, fanned out across
// the holder set and failing over to another holder mid-stream on
// timeout. A consumer that processes records slower than the network
// delivers them therefore never waits on a round trip.
type Cursor interface {
	// Next returns the record at the cursor position and advances. At
	// the end of the scan (past the end of the log, or below LSN 1) it
	// returns ErrBeyondEnd.
	Next() (record.Record, error)
	// Seek repositions the cursor to lsn, keeping its direction.
	// In-flight prefetch for the old position is discarded.
	Seek(lsn record.LSN) error
	// Close releases the cursor. Next and Seek fail afterwards.
	Close() error
}

// OpenCursor returns a streaming cursor positioned on from, scanning in
// dir. The position must be within the log (1 through EndOfLog), as for
// ReadRecord. The cursor's fetch engine is the client's only read path:
// ReadRecord is a one-record step of it, and initialization reads the
// doubtful window of Section 3.1.2 through a cursor.
func (l *ReplicatedLog) OpenCursor(from record.LSN, dir Direction) (Cursor, error) {
	if dir != Forward && dir != Backward {
		return nil, fmt.Errorf("core: invalid cursor direction %d", int8(dir))
	}
	if err := l.checkPos(from); err != nil {
		return nil, err
	}
	c := &streamCursor{
		l:      l,
		dir:    dir,
		pos:    from,
		carve:  from,
		opened: time.Now(),
	}
	c.mu.Lock()
	c.refillLocked()
	c.mu.Unlock()
	return c, nil
}
