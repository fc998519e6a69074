package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"distlog/internal/transport"
	"distlog/internal/wire"
)

// perLayerJSON are the per-layer metrics of the JSON result line: the
// ones every workload measures. The traced run prints every per-layer
// metric it can derive; most apply to one workload only.
var perLayerJSON = []string{
	"core.busy_us_per_op",
	"storage.busy_us_per_op",
	"storage.calls_per_op",
	"transport.pkts_per_op",
	"transport.bytes_per_op",
	"transport.send_us_p50",
	"wire.decode_ns_per_pkt",
	"server.recv_busy_frac",
	"core.retries",
	"server.refusals",
	"storage.stored_bytes_per_user_byte",
	"trace.overhead_frac",
}

// layerMetric is one derived value; n is its sample count when it is a
// percentile.
type layerMetric struct {
	v    float64
	unit string
	n    int
}

type layerSet struct {
	m     map[string]layerMetric
	table []string
}

func (ls *layerSet) put(name string, v float64, unit string, n int) {
	ls.m[name] = layerMetric{v, unit, n}
}

// pct records the q-quantile of xs scaled by scale, when there are
// samples.
func (ls *layerSet) pct(name string, xs []float64, q, scale float64, unit string) {
	if len(xs) == 0 {
		return
	}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * scale
	}
	ls.put(name, quantile(ys, q), unit, len(ys))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rpcPhases group the client initialization RPCs into the phases of
// ROADMAP's restart table (the reference column is that table's ms).
var rpcPhases = []struct {
	name  string
	types []wire.Type
	ref   float64
}{
	{"interval lists", []wire.Type{wire.TIntervalListReq}, 10},
	{"epoch", []wire.Type{wire.TEpochReadReq, wire.TEpochWriteReq}, 8.5},
	{"doubtful reads", []wire.Type{wire.TReadForwardReq, wire.TReadStreamReq}, 35},
	{"CopyLog + Install", []wire.Type{wire.TCopyLogReq, wire.TInstallCopiesReq}, 9},
}

var openRPCTypes = []wire.Type{
	wire.TIntervalListReq, wire.TEpochReadReq, wire.TEpochWriteReq, wire.TReadForwardReq,
	wire.TReadStreamReq, wire.TCopyLogReq, wire.TInstallCopiesReq,
}

// interval is a [lo, hi) span of trace time.
type interval struct{ lo, hi int64 }

// union returns the total time the intervals cover.
func union(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, iv := range ivs {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// computeLayers derives the per-layer metrics from a traced phase. Lane
// spans count when their root op completed inside the window; service
// spans count when they started inside it. Per-op values divide by the
// ops of the counted root spans: transactions, records or restarts.
func computeLayers(tr *tracer, sp spec, ph *phase) *layerSet {
	ls := &layerSet{m: make(map[string]layerMetric)}
	lo, hi := tr.winLo.Load(), tr.winHi.Load()
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()

	ops := make(map[uint64]bool)
	for i := range spans {
		if s := &spans[i]; s.name == spOp && s.end <= hi {
			ops[s.op] = true
		}
	}
	counted := func(s *span) bool {
		if s.op != 0 {
			return ops[s.op]
		}
		return s.start >= lo && s.start <= hi
	}
	name := make([]uint16, tr.ids.Load()+1) // lane span id → name
	for i := range spans {
		if s := &spans[i]; s.op != 0 {
			name[s.id] = s.name
		}
	}
	us := func(s *span) float64 { return float64(s.end-s.start) / 1e3 }

	dur := make([][]float64, numSpanNames)
	count := make([]int, numSpanNames)
	childUs := make(map[uint32]float64) // parent id → time in core children
	replayReadUs := make(map[uint32]float64)
	var opens, clientRPCs, installs []*span
	var coreUs, storeUs float64
	var storeCalls int
	var sendBytes int64
	var fillSum float64
	var fillN int
	for i := range spans {
		s := &spans[i]
		if !counted(s) {
			continue
		}
		d := us(s)
		dur[s.name] = append(dur[s.name], d)
		count[s.name]++
		switch {
		case s.name == spClientRPC:
			clientRPCs = append(clientRPCs, s)
		case s.name == spCoreOpen:
			opens = append(opens, s)
		case s.name == spSend:
			sendBytes += int64(s.bytes)
			if t := wire.Type(s.lsn); t == wire.TWriteLog || t == wire.TForceLog {
				fillSum += float64(int(s.bytes)-(transport.MaxPacketSize-wire.MaxPayload)) / wire.MaxPayload
				fillN++
			}
		case s.name >= spStoreAppend && s.name <= spStoreTruncate:
			storeUs += d
			storeCalls++
			if s.name == spStoreStage || s.name == spStoreInstall {
				installs = append(installs, s)
			}
		}
		if s.name >= spCoreOpen && s.name <= spCursorNext {
			if p := name[s.parent]; s.parent == 0 || p < spCoreOpen || p > spCursorNext {
				coreUs += d // a top-level core call
			}
			childUs[s.parent] += d
			if s.name == spCursorNext || s.name == spCoreReadRecord {
				replayReadUs[s.parent] += d
			}
		}
	}
	nops := float64(len(ops) * sp.opsPerRoot)
	perOp := func(x float64) float64 { return ratio(x, nops) }

	// recman
	ls.pct("recman.add_us_p50", dur[spRecmanAdd], 0.5, 1, "us")
	// opForce are the forces an op waits for: not the ones a checkpoint
	// issues while flushing pages.
	var commitSelf, replaySelf, opForce []float64
	for i := range spans {
		s := &spans[i]
		if !counted(s) {
			continue
		}
		switch s.name {
		case spCoreForce:
			if name[s.parent] != spRecmanCheckpoint {
				opForce = append(opForce, us(s))
			}
		case spRecmanCommit:
			commitSelf = append(commitSelf, us(s)-childUs[s.id])
		case spRecmanOpen:
			replaySelf = append(replaySelf, us(s)-replayReadUs[s.id])
		}
	}
	ls.pct("recman.commit_self_us_p50", commitSelf, 0.5, 1, "us")
	ls.pct("recman.replay_ms_p50", dur[spRecmanOpen], 0.5, 1e-3, "ms")
	ls.pct("recman.replay_self_ms_p50", replaySelf, 0.5, 1e-3, "ms")
	if sp.op == "txn" {
		ls.put("recman.records_per_txn", perOp(float64(ph.records)), "count", 0)
		ls.put("recman.bytes_per_txn", perOp(float64(ph.bytes)), "B", 0)
	}

	// core
	c := ph.client
	ls.pct("core.force_us_p50", opForce, 0.5, 1, "us")
	ls.pct("core.force_us_p99", opForce, 0.99, 1, "us")
	ls.pct("core.writelog_us_p50", dur[spCoreWriteLog], 0.5, 1, "us")
	ls.pct("core.writelog_us_p99", dur[spCoreWriteLog], 0.99, 1, "us")
	ls.pct("core.open_ms_p50", dur[spCoreOpen], 0.5, 1e-3, "ms")
	ls.put("core.rounds_per_force", ratio(float64(c.ForceRounds), float64(c.Forces)), "ratio", 0)
	ls.put("core.frames_per_record", ratio(float64(c.StreamFrames), float64(c.Writes)), "ratio", 0)
	ls.put("core.prefetch_wait_frac", ratio(float64(c.PrefetchWaits), float64(c.PrefetchHits+c.PrefetchWaits)), "frac", 0)
	ls.put("core.resends", float64(c.Resends), "count", 0)
	ls.put("core.stream_busy", float64(c.StreamBusy), "count", 0)
	ls.put("core.stream_backoffs", float64(c.StreamBackoffs), "count", 0)
	ls.put("core.stream_timeouts", float64(c.StreamTimeouts), "count", 0)
	ls.put("core.failovers", float64(c.Failovers), "count", 0)
	ls.put("core.stream_restarts", float64(c.StreamRestarts), "count", 0)
	ls.put("core.retries", float64(c.Resends+c.StreamBusy+c.StreamBackoffs+c.StreamTimeouts+c.Failovers+c.StreamRestarts), "count", 0)
	ls.put("core.busy_us_per_op", perOp(coreUs), "us", 0)

	// core.open: the RPCs client initialization issues, per restart.
	if len(opens) > 0 {
		openRPCs(ls, opens, clientRPCs, dur[spCoreOpen])
	}

	// transport and wire
	ls.put("transport.pkts_per_op", perOp(float64(count[spSend])), "count", 0)
	ls.put("transport.bytes_per_op", perOp(float64(sendBytes)), "B", 0)
	ls.pct("transport.send_us_p50", dur[spSend], 0.5, 1, "us")
	ls.put("wire.payload_fill", ratio(fillSum, float64(fillN)), "frac", 0)
	ls.put("wire.decode_ns_per_pkt", decodeNs(tr.samples), "ns", len(tr.samples))

	// server
	s := ph.server
	// Servers wait in Recv only while ops run: a serial workload's
	// servers are stopped between restarts.
	wall := float64(hi-lo) * numServers
	if sp.serial {
		wall = 0
		for _, x := range dur[spOp] {
			wall += x * 1e3 * numServers
		}
	}
	ls.put("server.recv_busy_frac", 1-ratio(float64(tr.recvNs.Load()), wall), "frac", 0)
	ls.pct("server.rpc_service_us_p50", dur[spServerRPC], 0.5, 1, "us")
	ls.put("server.force_coalesce_ratio", ratio(float64(s.ForceRounds+s.ForcesCoalesced), float64(s.ForceRounds)), "ratio", 0)
	ls.put("server.shed", float64(s.Shed), "count", 0)
	ls.put("server.busy_sent", float64(s.BusySent), "count", 0)
	ls.put("server.pkts_dropped", float64(s.PacketsDropped), "count", 0)
	ls.put("server.missing_intervals", float64(s.MissingIntervals), "count", 0)
	ls.put("server.queue_sheds", float64(s.QueueSheds), "count", 0)
	ls.put("server.refusals", float64(s.Shed+s.BusySent+s.PacketsDropped+s.MissingIntervals+s.QueueSheds), "count", 0)

	// storage
	ls.pct("storage.append_us_p50", dur[spStoreAppend], 0.5, 1, "us")
	ls.put("storage.appends_per_"+sp.op, perOp(float64(count[spStoreAppend])), "count", 0)
	ls.pct("storage.force_us_p50", dur[spStoreForce], 0.5, 1, "us")
	ls.pct("storage.force_us_p99", dur[spStoreForce], 0.99, 1, "us")
	ls.put("storage.forces_per_"+sp.op, perOp(float64(count[spStoreForce])), "count", 0)
	ls.pct("storage.read_us_p50", dur[spStoreRead], 0.5, 1, "us")
	ls.put("storage.reads_per_"+sp.op, perOp(float64(count[spStoreRead])), "count", 0)
	ls.pct("storage.intervals_us_p50", dur[spStoreIntervals], 0.5, 1, "us")
	ls.put("storage.peak_bytes", float64(ph.peakBytes), "B", 0)
	ls.put("storage.stored_bytes_per_user_byte", ph.stored, "B/B", 0)
	ls.put("storage.busy_us_per_op", perOp(storeUs), "us", 0)
	ls.put("storage.calls_per_op", perOp(float64(storeCalls)), "count", 0)
	if len(opens) > 0 {
		var install []float64
		for _, o := range opens {
			var t float64
			for _, x := range installs {
				if x.start >= o.start && x.start <= o.end {
					t += us(x)
				}
			}
			install = append(install, t)
		}
		ls.pct("storage.install_ms_p50", install, 0.5, 1e-3, "ms")
	}

	// retention
	ls.put("retention.segments_reclaimed", float64(ph.reclaimed), "count", 0)
	ls.put("retention.volumes_retired", float64(ph.retired), "count", 0)
	ls.put("retention.passes_deferred", float64(ph.deferred), "count", 0)

	// idgen
	ls.pct("idgen.read_us_p50", dur[spIdgenRead], 0.5, 1, "us")
	ls.pct("idgen.write_us_p50", dur[spIdgenWrite], 0.5, 1, "us")
	ls.put("idgen.calls_per_"+sp.op, perOp(float64(count[spIdgenRead]+count[spIdgenWrite])), "count", 0)
	return ls
}

// openRPCs reports, per client initialization, how many RPCs of each
// type it issued and how long they kept it waiting (the union of their
// request→response intervals), and the restart phase table.
func openRPCs(ls *layerSet, opens, rpcs []*span, openUs []float64) {
	byType := make(map[wire.Type][][]interval) // per type, per open
	for _, t := range openRPCTypes {
		byType[t] = make([][]interval, len(opens))
	}
	for _, r := range rpcs {
		i := sort.Search(len(opens), func(i int) bool { return opens[i].end >= r.start })
		if i == len(opens) || r.start < opens[i].start {
			continue // a replay cursor stream, not initialization
		}
		t := wire.Type(r.lsn)
		if byType[t] != nil {
			byType[t][i] = append(byType[t][i], interval{r.start, r.end})
		}
	}
	for _, t := range openRPCTypes {
		var n int
		var ms []float64
		for _, ivs := range byType[t] {
			n += len(ivs)
			ms = append(ms, float64(union(ivs))/1e6)
		}
		ls.put("core.open.rpcs."+t.String(), float64(n)/float64(len(opens)), "count", 0)
		ls.pct("core.open.rpc_ms."+t.String(), ms, 0.5, 1, "ms")
	}
	openMs := quantile(append([]float64(nil), openUs...), 0.5) / 1e3
	ls.table = append(ls.table, "  restart phase table (median per Open; ref: the ROADMAP restart table, 63 ms open):",
		fmt.Sprintf("    %-18s %9s %7s %9s", "phase", "ms", "share", "ref ms"))
	for _, p := range rpcPhases {
		var ms []float64
		for i := range opens {
			var ivs []interval
			for _, t := range p.types {
				ivs = append(ivs, byType[t][i]...)
			}
			ms = append(ms, float64(union(ivs))/1e6)
		}
		v := quantile(ms, 0.5)
		ls.table = append(ls.table, fmt.Sprintf("    %-18s %9.3f %6.1f%% %9.1f", p.name, v, 100*v/openMs, p.ref))
	}
	ls.table = append(ls.table, fmt.Sprintf("    %-18s %9.3f %6.1f%% %9.1f", "Open total", openMs, 100.0, 63.0))
}

// decodeNs times wire.Decode over the sampled packets, repeating the
// pass until at least 50ms have been measured.
func decodeNs(pkts [][]byte) float64 {
	if len(pkts) == 0 {
		return math.NaN()
	}
	var n int
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, p := range pkts {
			if _, err := wire.Decode(p); err == nil {
				n++
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
