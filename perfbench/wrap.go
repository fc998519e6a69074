package main

import (
	"sync"
	"time"

	"distlog"
	"distlog/internal/core"
	"distlog/internal/idgen"
	"distlog/internal/record"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// The wrappers below sit between two layers of the program and time
// each call into the lower layer's public interface. They expose
// exactly the methods the upper layer calls or probes for, so a traced
// run takes the same path as an untraced one (see TestSamePath).

// traceLog wraps the replicated log under the recovery manager and the
// bulk writers: the recman.Log interface plus every optional capability
// recman probes for (ForceRoundStats, Checkpoint, TruncatePrefix,
// OpenCursor, Streams/Stream/OpenMergedCursor).
type traceLog struct {
	l     *distlog.Client
	tr    *tracer
	bound *lane // the single goroutine using this log; nil: look it up
}

func (t *traceLog) lane() *lane {
	if t.bound != nil {
		return t.bound
	}
	return t.tr.current()
}

// call times fn as a span named name on the caller's lane, or as a
// service span when the caller runs no op.
func (t *traceLog) call(name uint16, fn func() (record.LSN, int)) {
	if l := t.lane(); l != nil {
		f := l.enter(name)
		lsn, n := fn()
		l.exit(f, 0, uint64(lsn), n)
		return
	}
	start := t.tr.now()
	lsn, n := fn()
	t.tr.service(name, start, 0, uint64(lsn), n)
}

func (t *traceLog) WriteLog(data []byte) (lsn record.LSN, err error) {
	t.call(spCoreWriteLog, func() (record.LSN, int) {
		lsn, err = t.l.WriteLog(data)
		return lsn, len(data)
	})
	return lsn, err
}

func (t *traceLog) Force() (err error) {
	t.call(spCoreForce, func() (record.LSN, int) {
		err = t.l.Force()
		return 0, 0
	})
	return err
}

func (t *traceLog) ReadRecord(lsn record.LSN) (rec record.Record, err error) {
	t.call(spCoreReadRecord, func() (record.LSN, int) {
		rec, err = t.l.ReadRecord(lsn)
		return lsn, len(rec.Data)
	})
	return rec, err
}

func (t *traceLog) EndOfLog() (end record.LSN) {
	t.call(spCoreEndOfLog, func() (record.LSN, int) {
		end = t.l.EndOfLog()
		return end, 0
	})
	return end
}

func (t *traceLog) ForceRoundStats() (forces, rounds, groupCommits uint64) {
	return t.l.ForceRoundStats()
}

func (t *traceLog) Checkpoint(data []byte) (lsn record.LSN, err error) {
	t.call(spCoreCheckpoint, func() (record.LSN, int) {
		lsn, err = t.l.Checkpoint(data)
		return lsn, len(data)
	})
	return lsn, err
}

func (t *traceLog) TruncatePrefix(before record.LSN) (err error) {
	t.call(spCoreTruncate, func() (record.LSN, int) {
		err = t.l.TruncatePrefix(before)
		return before, 0
	})
	return err
}

func (t *traceLog) OpenCursor(from record.LSN, dir core.Direction) (cur core.Cursor, err error) {
	t.call(spCoreOpenCursor, func() (record.LSN, int) {
		cur, err = t.l.OpenCursor(from, dir)
		return from, 0
	})
	if err != nil {
		return nil, err
	}
	return &traceCursor{c: cur, log: t}, nil
}

func (t *traceLog) Streams() int                                  { return t.l.Streams() }
func (t *traceLog) Stream(i int) *core.Stream                     { return t.l.Stream(i) }
func (t *traceLog) OpenMergedCursor() (*core.MergedCursor, error) { return t.l.OpenMergedCursor() }

// traceCursor times Cursor.Next.
type traceCursor struct {
	c   core.Cursor
	log *traceLog
}

func (c *traceCursor) Next() (rec record.Record, err error) {
	c.log.call(spCursorNext, func() (record.LSN, int) {
		rec, err = c.c.Next()
		return rec.LSN, len(rec.Data)
	})
	return rec, err
}

func (c *traceCursor) Seek(lsn record.LSN) error { return c.c.Seek(lsn) }
func (c *traceCursor) Close() error              { return c.c.Close() }

// traceStore times every Store call a log server makes.
type traceStore struct {
	s  distlog.Store
	tr *tracer
}

func (t *traceStore) Append(c record.ClientID, rec record.Record) error {
	start := t.tr.now()
	err := t.s.Append(c, rec)
	t.tr.service(spStoreAppend, start, uint64(c), uint64(rec.LSN), len(rec.Data))
	return err
}

func (t *traceStore) Force() error {
	start := t.tr.now()
	err := t.s.Force()
	t.tr.service(spStoreForce, start, 0, 0, 0)
	return err
}

func (t *traceStore) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	start := t.tr.now()
	rec, err := t.s.Read(c, lsn)
	t.tr.service(spStoreRead, start, uint64(c), uint64(lsn), len(rec.Data))
	return rec, err
}

func (t *traceStore) Intervals(c record.ClientID) []record.Interval {
	start := t.tr.now()
	ivs := t.s.Intervals(c)
	t.tr.service(spStoreIntervals, start, uint64(c), 0, len(ivs))
	return ivs
}

func (t *traceStore) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	start := t.tr.now()
	lsn, ep := t.s.LastKey(c)
	t.tr.service(spStoreLastKey, start, uint64(c), uint64(lsn), 0)
	return lsn, ep
}

func (t *traceStore) Clients() []record.ClientID {
	start := t.tr.now()
	cs := t.s.Clients()
	t.tr.service(spStoreClients, start, 0, 0, len(cs))
	return cs
}

func (t *traceStore) StageCopy(c record.ClientID, rec record.Record) error {
	start := t.tr.now()
	err := t.s.StageCopy(c, rec)
	t.tr.service(spStoreStage, start, uint64(c), uint64(rec.LSN), len(rec.Data))
	return err
}

func (t *traceStore) InstallCopies(c record.ClientID, epoch record.Epoch) error {
	start := t.tr.now()
	err := t.s.InstallCopies(c, epoch)
	t.tr.service(spStoreInstall, start, uint64(c), 0, 0)
	return err
}

func (t *traceStore) Truncate(c record.ClientID, before record.LSN) error {
	start := t.tr.now()
	err := t.s.Truncate(c, before)
	t.tr.service(spStoreTruncate, start, uint64(c), uint64(before), 0)
	return err
}

func (t *traceStore) Close() error { return t.s.Close() }

// traceEpochs hands out representatives whose reads and writes are
// timed.
type traceEpochs struct {
	h  distlog.EpochHost
	tr *tracer
}

func (t *traceEpochs) Rep(c record.ClientID) idgen.Representative {
	return &traceRep{r: t.h.Rep(c), tr: t.tr, client: uint64(c)}
}

type traceRep struct {
	r      idgen.Representative
	tr     *tracer
	client uint64
}

func (t *traceRep) ReadState() (uint64, error) {
	start := t.tr.now()
	v, err := t.r.ReadState()
	t.tr.service(spIdgenRead, start, t.client, v, 0)
	return v, err
}

func (t *traceRep) WriteState(v uint64) error {
	start := t.tr.now()
	err := t.r.WriteState(v)
	t.tr.service(spIdgenWrite, start, t.client, v, 0)
	return err
}

// traceEndpoint times sends (span lsn: the packet type), measures a
// server's time blocked in Recv, and pairs requests with responses by
// ConnID/Seq ↔ RespTo using the public wire decoder. A client endpoint
// times each RPC from request Send to its last response Recv; a server
// endpoint times its service from request Recv to its last response
// Send.
type traceEndpoint struct {
	ep     distlog.Endpoint
	tr     *tracer
	server bool

	mu      sync.Mutex
	pending map[rpcKey]*span
}

// rpcKey identifies one request on an endpoint.
type rpcKey struct {
	peer string
	conn uint64
	seq  uint64
}

// traceFlipEndpoint keeps the Flip method of a dual-network endpoint,
// which the client probes for on failover.
type traceFlipEndpoint struct {
	*traceEndpoint
}

func (t traceFlipEndpoint) Flip() { t.ep.(interface{ Flip() }).Flip() }

func wrapEndpoint(ep distlog.Endpoint, tr *tracer, server bool) distlog.Endpoint {
	t := &traceEndpoint{ep: ep, tr: tr, server: server, pending: make(map[rpcKey]*span)}
	if _, ok := ep.(interface{ Flip() }); ok {
		return traceFlipEndpoint{t}
	}
	return t
}

func (t *traceEndpoint) Send(to string, data []byte) error {
	start := t.tr.now()
	err := t.ep.Send(to, data)
	if !t.tr.on.Load() {
		return err
	}
	end := t.tr.now()
	t.tr.keepPacket(data)
	pkt, derr := wire.Decode(data)
	if derr != nil {
		return err
	}
	t.tr.add(span{start: start, end: end, name: spSend, client: uint64(pkt.ClientID), lsn: uint64(pkt.Type), bytes: uint32(len(data))})
	t.pair(pkt, to, end)
	return err
}

func (t *traceEndpoint) Recv(timeout time.Duration) (transport.Packet, error) {
	start := t.tr.now()
	raw, err := t.ep.Recv(timeout)
	if !t.tr.on.Load() || err != nil {
		return raw, err
	}
	end := t.tr.now()
	if t.server {
		if lo := t.tr.winLo.Load(); start < lo {
			start = lo
		}
		if end > start {
			t.tr.recvNs.Add(end - start)
		}
	}
	if pkt, derr := wire.Decode(raw.Data); derr == nil {
		t.pair(pkt, raw.From, end)
	}
	return raw, err
}

// pair opens an RPC span when a request crosses the endpoint in its
// outgoing direction (client Send, server Recv) and extends it when a
// matching response crosses in the other.
func (t *traceEndpoint) pair(pkt wire.Packet, peer string, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case pkt.Type.IsRequest():
		name := spClientRPC
		if t.server {
			name = spServerRPC
		}
		t.pending[rpcKey{peer, pkt.ConnID, pkt.Seq}] = &span{start: at, end: at, name: name,
			client: uint64(pkt.ClientID), lsn: uint64(pkt.Type)}
	case pkt.Type.IsResponse() && pkt.RespTo != 0:
		if s := t.pending[rpcKey{peer, pkt.ConnID, pkt.RespTo}]; s != nil {
			s.end = at
		}
	}
}

// flush records every paired RPC as a span.
func (t *traceEndpoint) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, s := range t.pending {
		if s.end > s.start {
			t.tr.add(*s)
		}
		delete(t.pending, k)
	}
}

func (t *traceEndpoint) Addr() string { return t.ep.Addr() }
func (t *traceEndpoint) Close() error { return t.ep.Close() }
