package core

import (
	"distlog/internal/record"
	"distlog/internal/wire"
)

// Checkpoint implements the Section 5.3 checkpoint protocol in one
// call: write a checkpoint record (data is the recovery manager's
// checkpoint payload — typically a marker, the dirty-page state
// itself usually lives elsewhere), force it stable, and advance the
// truncation point past everything before it, since recovery now
// replays from the checkpoint record onward.
//
// The truncation-point advance is reported to the servers with
// fire-and-forget TTruncatePoint messages rather than the synchronous
// TTruncateReq: reclamation is a space optimization, so a checkpoint
// must not fail just because a log server is down — a server that
// misses the report reclaims at the next checkpoint. The point is
// clamped by advanceFloorLocked, exactly as in TruncatePrefix.
//
// Returns the checkpoint record's LSN: the position recovery replay
// is bounded by.
func (l *ReplicatedLog) Checkpoint(data []byte) (record.LSN, error) {
	lsn, err := l.ForceLog(data)
	if err != nil {
		return 0, err
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return lsn, nil
	}
	before := l.advanceFloorLocked(lsn)
	l.mu.Unlock()

	if before != 0 {
		payload := (&wire.LSNPayload{LSN: before}).Encode()
		for _, addr := range l.cfg.Servers {
			sess, err := l.dial(addr)
			if err != nil {
				continue // fire-and-forget: the server reclaims later
			}
			sess.peer.Send(wire.TTruncatePoint, 0, payload)
		}
	}
	l.m.checkpoints.Add(1)
	return lsn, nil
}
