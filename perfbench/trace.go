package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A span is one call across a layer boundary, timed by the
// benchmark's wrappers (wrap.go) or by the workload loop itself.
const (
	spOp               uint16 = iota // root: one txn, record batch or restart
	spRecmanAdd                      // Txn.Add / Txn.AddNote
	spRecmanSet                      // Txn.Set / Txn.SetNote
	spRecmanCommit                   // Txn.Commit
	spRecmanOpen                     // OpenEngine (recovery replay)
	spRecmanCheckpoint               // Engine.Checkpoint
	spCoreOpen                       // distlog.Open (client initialization)
	spCoreWriteLog                   // Log.WriteLog
	spCoreForce                      // Log.Force
	spCoreCheckpoint                 // Log.Checkpoint
	spCoreTruncate                   // Log.TruncatePrefix
	spCoreReadRecord                 // Log.ReadRecord
	spCoreEndOfLog                   // Log.EndOfLog
	spCoreOpenCursor                 // Log.OpenCursor
	spCursorNext                     // Cursor.Next
	spSend                           // Endpoint.Send (any endpoint)
	spStoreAppend                    // Store.Append
	spStoreForce                     // Store.Force
	spStoreRead                      // Store.Read
	spStoreIntervals                 // Store.Intervals
	spStoreLastKey                   // Store.LastKey
	spStoreClients                   // Store.Clients
	spStoreStage                     // Store.StageCopy
	spStoreInstall                   // Store.InstallCopies
	spStoreTruncate                  // Store.Truncate
	spIdgenRead                      // Representative.ReadState
	spIdgenWrite                     // Representative.WriteState
	spClientRPC                      // client request Send → last matching response Recv
	spServerRPC                      // server request Recv → last matching response Send
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "recman.Add", "recman.Set", "recman.Commit", "recman.OpenEngine", "recman.Checkpoint",
	"core.Open", "core.WriteLog", "core.Force", "core.Checkpoint", "core.TruncatePrefix",
	"core.ReadRecord", "core.EndOfLog", "core.OpenCursor", "core.Cursor.Next",
	"transport.Send",
	"storage.Append", "storage.Force", "storage.Read", "storage.Intervals",
	"storage.LastKey", "storage.Clients", "storage.StageCopy", "storage.InstallCopies",
	"storage.Truncate",
	"idgen.ReadState", "idgen.WriteState",
	"rpc.client", "rpc.server",
}

// span is one recorded call. Spans on a lane (the goroutine running a
// root op) carry the op id and their parent's id; service spans — a
// server's Store.Force serving a group of ops, a packet send — carry
// op 0 and, where the call has them, the ClientID and LSN. For the RPC
// spans, lsn holds the wire packet type.
type span struct {
	start, end int64 // ns since the tracer started
	op         uint64
	lsn        uint64
	client     uint64
	id, parent uint32
	bytes      uint32
	name       uint16
}

// tracer holds every span of a traced run in memory until the run
// ends. Recording is on only inside the measured window.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint32
	ops    atomic.Uint64
	on     atomic.Bool
	winLo  atomic.Int64
	winHi  atomic.Int64
	recvNs atomic.Int64 // server time blocked in Recv inside the window

	mu    sync.Mutex
	spans []span
	lanes map[uint64]*lane // goroutine id → lane, for shared wrappers

	sampleMu sync.Mutex
	samples  [][]byte // packets kept for the wire.Decode timing
	sendN    atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), lanes: make(map[uint64]*lane)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// startWindow turns recording on; endWindow turns it off. Both are
// no-ops on an untraced run's nil tracer.
func (tr *tracer) startWindow() {
	if tr == nil {
		return
	}
	tr.winLo.Store(tr.now())
	tr.on.Store(true)
}

func (tr *tracer) endWindow() {
	if tr == nil {
		return
	}
	tr.on.Store(false)
	tr.winHi.Store(tr.now())
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// service records a span that is not part of any lane's call stack.
func (tr *tracer) service(name uint16, start int64, client, lsn uint64, bytes int) {
	if !tr.on.Load() {
		return
	}
	tr.add(span{start: start, end: tr.now(), name: name, client: client, lsn: lsn, bytes: uint32(bytes)})
}

// lane is the call stack of one load goroutine: the root op it runs
// and the spans open inside it. Only its goroutine touches it.
type lane struct {
	tr    *tracer
	op    uint64
	stack []uint32
}

// frame is an open span on a lane.
type frame struct {
	id, parent uint32
	start      int64
	name       uint16
}

// newLane creates a lane bound to the calling goroutine, so wrappers
// shared between goroutines can find it.
func (tr *tracer) newLane() *lane {
	l := &lane{tr: tr}
	tr.mu.Lock()
	tr.lanes[goid()] = l
	tr.mu.Unlock()
	return l
}

// current returns the calling goroutine's lane, nil when it has none.
func (tr *tracer) current() *lane {
	g := goid()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.lanes[g]
}

// beginOp opens a root span: one txn, record batch or restart.
func (l *lane) beginOp() frame {
	if l == nil {
		return frame{}
	}
	l.op = l.tr.ops.Add(1)
	return l.enter(spOp)
}

// enter opens a child span of whatever is open on the lane.
func (l *lane) enter(name uint16) frame {
	if l == nil {
		return frame{}
	}
	f := frame{id: l.tr.ids.Add(1), name: name}
	if n := len(l.stack); n > 0 {
		f.parent = l.stack[n-1]
	}
	l.stack = append(l.stack, f.id)
	f.start = l.tr.now()
	return f
}

// exit closes the span f, which must be the innermost open one.
func (l *lane) exit(f frame, client, lsn uint64, bytes int) {
	if l == nil {
		return
	}
	end := l.tr.now()
	l.stack = l.stack[:len(l.stack)-1]
	if !l.tr.on.Load() {
		return
	}
	l.tr.add(span{start: f.start, end: end, op: l.op, id: f.id, parent: f.parent,
		name: f.name, client: client, lsn: lsn, bytes: uint32(bytes)})
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// keepPacket retains every 64th sent packet, from the first, up to
// 4096, for timing the wire decoder over the run's real packet mix.
func (tr *tracer) keepPacket(data []byte) {
	if tr.sendN.Add(1)%64 != 1 {
		return
	}
	tr.sampleMu.Lock()
	if len(tr.samples) < 4096 {
		tr.samples = append(tr.samples, append([]byte(nil), data...))
	}
	tr.sampleMu.Unlock()
}

// writeFile writes the names table and every span, little-endian, to
// path: a uint16 name count, each name as a uint16 length and bytes,
// a uint64 span count, then the spans field by field in declaration
// order.
func (tr *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	le := binary.LittleEndian
	var hdr []byte
	hdr = le.AppendUint16(hdr, uint16(numSpanNames))
	for _, n := range spanNames {
		hdr = le.AppendUint16(hdr, uint16(len(n)))
		hdr = append(hdr, n...)
	}
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	hdr = le.AppendUint64(hdr, uint64(len(spans)))
	w.Write(hdr)
	buf := make([]byte, 0, 64)
	for i := range spans {
		s := &spans[i]
		buf = buf[:0]
		buf = le.AppendUint64(buf, uint64(s.start))
		buf = le.AppendUint64(buf, uint64(s.end))
		buf = le.AppendUint64(buf, s.op)
		buf = le.AppendUint64(buf, s.lsn)
		buf = le.AppendUint64(buf, s.client)
		buf = le.AppendUint32(buf, s.id)
		buf = le.AppendUint32(buf, s.parent)
		buf = le.AppendUint32(buf, s.bytes)
		buf = le.AppendUint16(buf, s.name)
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
