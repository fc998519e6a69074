package core

import (
	"fmt"
	"sync"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/wire"
)

// streamCursor is the Cursor implementation: a window of range-fetch
// tasks kept in flight ahead of the consumer. Each task covers up to
// Config.ScanSpan consecutive LSNs of one holder segment; remote tasks
// run on their own goroutine and stream their range from a holder,
// local tasks (outstanding records, truncated or uncovered positions)
// are materialized inline. Tasks are consumed strictly in scan order,
// so the window never reorders records — it only overlaps their
// network round trips.
type streamCursor struct {
	l   *ReplicatedLog
	dir Direction

	mu  sync.Mutex
	pos record.LSN // LSN the next Next() must return
	// carve is the first LSN not yet covered by a queued task: the next
	// task starts here. 0 means a backward scan has carved past LSN 1.
	carve   record.LSN
	buf     []record.Record // records of the task being consumed
	bufIdx  int
	tasks   []*fetchTask // queued tasks, scan order
	taskSeq int          // rotates the first holder tried per task
	closed  bool
	opened  time.Time
}

// fetchTask is one unit of the read-ahead window. from..to are in scan
// order (to < from on a backward scan). Local tasks carry their records
// at carve time and have a nil done channel; remote tasks are filled in
// by runFetch and signal done.
type fetchTask struct {
	from, to record.LSN
	dir      Direction
	local    bool
	servers  []string
	epoch    record.Epoch
	rot      int
	done     chan struct{}
	recs     []record.Record
	err      error
}

// step returns the scan-order successor of lsn; 0 when a backward scan
// steps below LSN 1.
func (d Direction) step(lsn record.LSN) record.LSN {
	if d == Forward {
		return lsn + 1
	}
	if lsn <= 1 {
		return 0
	}
	return lsn - 1
}

// refillLocked tops the task window up to Config.ReadAhead, carving
// tasks forward from c.carve. Called with c.mu held; takes l.mu inside
// (lock order: cursor.mu before l.mu, never the reverse).
func (c *streamCursor) refillLocked() {
	for len(c.tasks) < c.l.cfg.ReadAhead {
		t := c.l.carveTask(c.carve, c.dir, c.l.cfg.ScanSpan)
		if t == nil {
			break // end of scan, or log end on a forward scan (re-checked next refill)
		}
		c.tasks = append(c.tasks, t)
		c.carve = c.dir.step(t.to)
		if t.local {
			continue
		}
		t.done = make(chan struct{})
		t.rot = c.taskSeq
		c.taskSeq++
		go c.l.runFetch(t)
	}
	c.l.m.windowOccupancy.Observe(uint64(len(c.tasks)))
}

// carveTask classifies the scan position start and cuts one task of at
// most span LSNs there, consulting the log's state under l.mu. It is
// the client's one classification of read positions: cursors carve
// Config.ScanSpan at a time, ReadRecord carves one. It returns nil when
// nothing can be carved now: the scan is exhausted, or a forward scan
// has caught up with the end of the log (new writes may extend it
// before the next refill).
func (l *ReplicatedLog) carveTask(start record.LSN, dir Direction, span int) *fetchTask {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return &fetchTask{from: start, to: start, dir: dir, local: true, err: ErrClosed}
	}
	if start == 0 || (dir == Forward && start >= l.nextLSN) {
		return nil
	}
	var outLow, outHigh record.LSN
	if len(l.outstanding) > 0 {
		outLow = l.outstanding[0].LSN
		outHigh = l.outstanding[len(l.outstanding)-1].LSN
	}
	inOutstanding := func(lsn record.LSN) bool {
		return outLow != 0 && outLow <= lsn && lsn <= outHigh
	}
	if inOutstanding(start) {
		// Unacknowledged records are served from the client's own
		// buffer; outstanding holds consecutive LSNs starting at outLow.
		t := &fetchTask{from: start, to: start, dir: dir, local: true}
		for lsn, n := start, 0; n < span && inOutstanding(lsn); n++ {
			t.recs = append(t.recs, l.outstanding[int(lsn-outLow)].Clone())
			t.to = lsn
			lsn = dir.step(lsn)
			if lsn == 0 {
				break
			}
		}
		return t
	}
	if start >= l.truncated && l.holders.covered(start) {
		// Remote range: clip to the holder segment, the span, the log
		// end, and (backward) the truncation point.
		iv, servers, _ := l.holders.segment(start)
		t := &fetchTask{from: start, to: start, dir: dir, servers: servers, epoch: iv.Epoch}
		if dir == Forward {
			to := start + record.LSN(span) - 1
			if to > iv.High {
				to = iv.High
			}
			if to >= l.nextLSN {
				to = l.nextLSN - 1
			}
			if outLow != 0 && outLow <= to {
				to = outLow - 1
			}
			t.to = to
		} else {
			to := record.LSN(1)
			if start > record.LSN(span) {
				to = start - record.LSN(span) + 1
			}
			if to < iv.Low {
				to = iv.Low
			}
			if to < l.truncated {
				to = l.truncated
			}
			t.to = to
		}
		return t
	}
	// Truncated or uncovered positions: materialize not-present markers
	// locally.
	t := &fetchTask{from: start, to: start, dir: dir, local: true}
	for lsn, n := start, 0; n < span && lsn != 0; n++ {
		if dir == Forward && lsn >= l.nextLSN {
			break
		}
		if inOutstanding(lsn) || (lsn >= l.truncated && l.holders.covered(lsn)) {
			break
		}
		t.recs = append(t.recs, record.Record{LSN: lsn, Present: false})
		t.to = lsn
		lsn = dir.step(lsn)
	}
	return t
}

// runFetch executes one remote task on its own goroutine.
func (l *ReplicatedLog) runFetch(t *fetchTask) {
	t.recs, t.err = l.fetchRange(t.from, t.to, t.dir, t.servers, t.epoch, t.rot)
	close(t.done)
}

func (c *streamCursor) Next() (record.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return record.Record{}, ErrClosed
		}
		if c.bufIdx < len(c.buf) {
			rec := c.buf[c.bufIdx]
			c.bufIdx++
			if rec.LSN != c.pos {
				return record.Record{}, fmt.Errorf("core: cursor out of sequence: got LSN %d, want %d", rec.LSN, c.pos)
			}
			c.pos = c.dir.step(c.pos)
			c.refillLocked()
			c.l.m.reads.Add(1)
			return rec, nil
		}
		if len(c.tasks) == 0 {
			c.refillLocked()
			if len(c.tasks) == 0 {
				c.l.mu.Lock()
				end := c.l.nextLSN - 1
				c.l.mu.Unlock()
				return record.Record{}, fmt.Errorf("%w: %d (end of log %d)", ErrBeyondEnd, c.pos, end)
			}
			continue
		}
		t := c.tasks[0]
		c.tasks = c.tasks[1:]
		if !t.local {
			select {
			case <-t.done:
				c.l.m.prefetchHits.Add(1)
			default:
				// The consumer outran the window: block, off the cursor
				// lock. Cursors are single-consumer, so nothing else
				// mutates cursor state while we wait.
				c.l.m.prefetchWaits.Add(1)
				c.mu.Unlock()
				<-t.done
				c.mu.Lock()
			}
		}
		if t.err != nil {
			return record.Record{}, t.err
		}
		c.buf, c.bufIdx = t.recs, 0
	}
}

func (c *streamCursor) Seek(lsn record.LSN) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if err := c.l.checkPos(lsn); err != nil {
		return err
	}
	// In-flight remote fetches for the old position finish on their own
	// goroutines and are discarded with the task window.
	c.pos, c.carve = lsn, lsn
	c.buf, c.bufIdx = nil, 0
	c.tasks = nil
	c.refillLocked()
	return nil
}

func (c *streamCursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.buf, c.tasks = nil, nil
	c.l.m.scanLatency.Observe(uint64(time.Since(c.opened).Nanoseconds()))
	return nil
}

// fetchRange reads the consecutive LSNs from..to (scan order given by
// dir) from the holder set, streaming from one server at a time and
// failing over to the next on timeout, sequence break, or stale-epoch
// data — resuming mid-range from wherever the last stream stopped. rot
// rotates which holder is tried first so concurrent tasks of one
// cursor fan out across the set.
func (l *ReplicatedLog) fetchRange(from, to record.LSN, dir Direction, servers []string, wantEpoch record.Epoch, rot int) ([]record.Record, error) {
	forward := dir == Forward
	total := int(to - from + 1)
	if !forward {
		total = int(from - to + 1)
	}
	out := make([]record.Record, 0, total)
	pos := from
	srvIdx, zeroRuns := 0, 0
	// Each failed attempt with no progress counts toward zeroRuns; any
	// progress resets it, so the loop terminates after at most
	// (Retries+1)*len(servers) fruitless attempts per position.
	for len(out) < total {
		if len(servers) == 0 {
			return nil, fmt.Errorf("%w: LSNs %d..%d", ErrUnavailable, pos, to)
		}
		addr := servers[(rot+srvIdx)%len(servers)]
		recs, complete, err := l.streamRange(addr, pos, to, dir, wantEpoch)
		out = append(out, recs...)
		if len(recs) > 0 {
			zeroRuns = 0
			if forward {
				pos += record.LSN(len(recs))
			} else {
				pos -= record.LSN(len(recs))
			}
		}
		if err == nil && !complete && len(recs) > 0 {
			// The server exhausted its packet budget mid-range; continue
			// the same server with a fresh request. Not a restart.
			continue
		}
		if complete {
			break
		}
		// Timeout, sequence break, stale epoch, or an empty stream:
		// restart against the next holder.
		l.m.streamRestarts.Add(1)
		srvIdx++
		if len(recs) == 0 {
			zeroRuns++
		}
		if zeroRuns > (l.cfg.Retries+1)*len(servers) {
			// Every holder failed repeatedly on pos. One legitimate way:
			// the span was truncated after the task was carved. Serve
			// what truncation dictates and keep going past it.
			l.mu.Lock()
			trunc := l.truncated
			l.mu.Unlock()
			progressed := false
			for len(out) < total && pos < trunc && pos >= 1 {
				out = append(out, record.Record{LSN: pos, Present: false})
				if forward {
					pos++
				} else {
					pos--
				}
				progressed = true
			}
			if progressed {
				zeroRuns = 0
				continue
			}
			return nil, fmt.Errorf("%w: LSNs %d..%d on %v", ErrUnavailable, pos, to, servers)
		}
	}
	return out, nil
}

// streamRange opens one ReadStream against addr and consumes its reply
// chunks, validating LSN sequence and epoch per record. It returns the
// prefix of valid records received, complete == true when the server's
// final chunk landed exactly at to, and a non-nil error only for
// transport-level failures (timeout, dead session, server error
// reply). complete == false with err == nil means the stream stopped
// early — packet budget exhausted (caller continues same server) or a
// protocol anomaly (caller fails over).
func (l *ReplicatedLog) streamRange(addr string, from, to record.LSN, dir Direction, wantEpoch record.Epoch) ([]record.Record, bool, error) {
	forward := dir == Forward
	sess, err := l.dial(addr)
	if err != nil {
		return nil, false, err
	}
	req := wire.ReadStreamPayload{From: from, To: to, MaxPackets: uint8(l.cfg.StreamPackets)}
	if forward {
		req.Dir = wire.StreamForward
	} else {
		req.Dir = wire.StreamBackward
	}
	seq, ch, err := sess.openStream(&req)
	if err != nil {
		return nil, false, err
	}
	defer sess.closeStream(seq)
	l.m.cursorStreams.Add(1)

	var out []record.Record
	next := from
	var nextIdx uint16
	// The transport reorders datagrams, and a multi-packet reply sent
	// back-to-back reorders routinely — that must not look like loss.
	// Out-of-order chunks wait here until their predecessors arrive;
	// only the inter-chunk timeout (true loss) triggers failover.
	reordered := make(map[uint16]*wire.StreamChunk)
	timer := time.NewTimer(l.callTimeoutFor())
	defer timer.Stop()
	for {
		select {
		case pkt, ok := <-ch:
			if !ok {
				return out, false, ErrSessionClosed
			}
			if pkt.Type == wire.TErrResp {
				ep, derr := wire.DecodeErrPayload(pkt.Payload)
				if derr != nil {
					return out, false, derr
				}
				return out, false, &RemoteError{Code: ep.Code, Message: ep.Message}
			}
			if pkt.Type != wire.TReadStreamData {
				continue
			}
			chunk, derr := wire.DecodeStreamChunk(pkt.Payload)
			if derr != nil {
				return out, false, nil // corrupt chunk: fail over
			}
			if chunk.Index < nextIdx {
				continue // duplicate delivery
			}
			if chunk.Index > nextIdx {
				reordered[chunk.Index] = chunk // early arrival; keep waiting
				continue
			}
			for {
				nextIdx++
				faultpoint.Hit(FPCursorMidStream)
				for _, rec := range chunk.Records {
					if rec.LSN != next || rec.Epoch < wantEpoch {
						// Sequence break or stale lower-epoch copy: keep the
						// valid prefix, let the caller try another holder.
						return out, false, nil
					}
					out = append(out, rec)
					if forward {
						next++
					} else {
						next--
					}
				}
				if chunk.Done {
					complete := (forward && next == to+1) || (!forward && next == to-1)
					return out, complete, nil
				}
				c, ok := reordered[nextIdx]
				if !ok {
					break
				}
				delete(reordered, nextIdx)
				chunk = c
			}
			// Re-arm the inter-chunk timeout.
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(l.callTimeoutFor())
		case <-timer.C:
			return out, false, fmt.Errorf("%w: read stream from %s at LSN %d", ErrCallTimeout, addr, next)
		}
	}
}

// callTimeoutFor returns the per-chunk stream timeout.
func (l *ReplicatedLog) callTimeoutFor() time.Duration {
	return l.cfg.CallTimeout
}
