package core

import (
	"fmt"

	"distlog/internal/telemetry"
)

// Client metric names. A process that installs a shared Registry sees
// these families aggregated across every client it hosts.
const (
	mWrites          = "client.writes"
	mForces          = "client.forces"
	mForceRounds     = "client.force_rounds"
	mGroupCommits    = "client.group_commits"
	mReads           = "client.reads"
	mFailovers       = "client.failovers"
	mMigrations      = "client.migrations"
	mCheckpoints     = "client.checkpoints"
	mResends         = "client.resends"
	mWaiterAcks      = "client.force.acks"
	mWaiterNacks     = "client.force.nacks"
	mWaiterTimeouts  = "client.force.timeouts"
	mForceLatency    = "client.force.latency_ns"
	mRecordsPerRound = "client.force.records_per_round"
	mCursorStreams   = "client.cursor.streams"
	mStreamRestarts  = "client.cursor.stream_restarts"
	mPrefetchHits    = "client.cursor.prefetch_hits"
	mPrefetchWaits   = "client.cursor.prefetch_waits"
	mWindowOccupancy = "client.cursor.window_occupancy"
	mScanLatency     = "client.cursor.scan_latency_ns"
	mStreamFrames    = "client.stream.frames"
	mStreamBusy      = "client.stream.busy"
	mStreamBackoffs  = "client.stream.backoffs"
	mStreamTimeouts  = "client.stream.timeouts"
	mStreamCwnd      = "client.stream.cwnd"
	mStreamOccupancy = "client.stream.window_occupancy"
	mStreamInflight  = "client.stream.inflight_bytes"
)

// clientMetrics is the client's single source of protocol counters.
// The legacy Stats()/ForceRoundStats() APIs are snapshot views over
// these instruments — there is exactly one set of counters, so the two
// APIs can never disagree (they once kept parallel fields).
//
// When no Registry is configured the client installs a private one:
// Stats() must keep working, and counters are two atomic adds either
// way. The trace handle is nil unless the caller's registry enabled
// tracing, so the LSN-lifecycle emissions cost one branch when off.
type clientMetrics struct {
	node  string
	trace *telemetry.Trace

	writes       *telemetry.Counter
	forces       *telemetry.Counter
	forceRounds  *telemetry.Counter
	groupCommits *telemetry.Counter
	reads        *telemetry.Counter
	failovers    *telemetry.Counter
	migrations   *telemetry.Counter
	checkpoints  *telemetry.Counter
	resends      *telemetry.Counter

	waiterAcks     *telemetry.Counter
	waiterNacks    *telemetry.Counter
	waiterTimeouts *telemetry.Counter

	// Cursor instruments. Unlike the Stats-visible write-path counters
	// these are incremented off l.mu (prefetch tasks run concurrently),
	// so their Stats view is monotone but not transactionally consistent
	// with the rest of a snapshot.
	cursorStreams  *telemetry.Counter
	streamRestarts *telemetry.Counter
	prefetchHits   *telemetry.Counter
	prefetchWaits  *telemetry.Counter

	// Streaming-write instruments. Like the cursor family these are
	// touched off l.mu (the TBusy callback runs on the receive pump, the
	// streamer samples after dropping the session lock), so they are
	// monotone but not transactionally consistent with the write-path
	// counters.
	streamFrames   *telemetry.Counter
	streamBusy     *telemetry.Counter
	streamBackoffs *telemetry.Counter
	streamTimeouts *telemetry.Counter

	// Per-stream counters of a multi-stream log. Nil on a single-stream
	// log; on stream i of K they are the client.streams.<i>.* families,
	// incremented alongside the aggregates above so an operator can see
	// how load divides across the K streams.
	sWrites  *telemetry.Counter
	sForces  *telemetry.Counter
	sCommits *telemetry.Counter

	forceLatency    *telemetry.Histogram
	recordsPerRound *telemetry.Histogram
	// windowOccupancy samples the number of in-flight prefetch tasks at
	// each cursor refill; scanLatency is the lifetime of each cursor
	// from open to close.
	windowOccupancy *telemetry.Histogram
	scanLatency     *telemetry.Histogram
	// streamCwnd samples the AIMD window after each frame send;
	// streamOccupancy the frames then in flight; streamInflightBytes the
	// unacknowledged payload bytes — together the congestion picture.
	streamCwnd          *telemetry.Histogram
	streamOccupancy     *telemetry.Histogram
	streamInflightBytes *telemetry.Histogram
}

func newClientMetrics(reg *telemetry.Registry, node string) *clientMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &clientMetrics{
		node:            node,
		trace:           reg.Trace(),
		writes:          reg.Counter(mWrites),
		forces:          reg.Counter(mForces),
		forceRounds:     reg.Counter(mForceRounds),
		groupCommits:    reg.Counter(mGroupCommits),
		reads:           reg.Counter(mReads),
		failovers:       reg.Counter(mFailovers),
		migrations:      reg.Counter(mMigrations),
		checkpoints:     reg.Counter(mCheckpoints),
		resends:         reg.Counter(mResends),
		waiterAcks:      reg.Counter(mWaiterAcks),
		waiterNacks:     reg.Counter(mWaiterNacks),
		waiterTimeouts:  reg.Counter(mWaiterTimeouts),
		cursorStreams:   reg.Counter(mCursorStreams),
		streamRestarts:  reg.Counter(mStreamRestarts),
		prefetchHits:    reg.Counter(mPrefetchHits),
		prefetchWaits:   reg.Counter(mPrefetchWaits),
		streamFrames:    reg.Counter(mStreamFrames),
		streamBusy:      reg.Counter(mStreamBusy),
		streamBackoffs:  reg.Counter(mStreamBackoffs),
		streamTimeouts:  reg.Counter(mStreamTimeouts),
		forceLatency:    reg.Histogram(mForceLatency),
		recordsPerRound: reg.Histogram(mRecordsPerRound),
		windowOccupancy: reg.Histogram(mWindowOccupancy),
		scanLatency:     reg.Histogram(mScanLatency),

		streamCwnd:          reg.Histogram(mStreamCwnd),
		streamOccupancy:     reg.Histogram(mStreamOccupancy),
		streamInflightBytes: reg.Histogram(mStreamInflight),
	}
}

// enableStreamCounters registers the client.streams.<i>.* families for
// stream i of a multi-stream log. Called once, before the log is
// usable, so readers of the fields never race the assignment.
func (m *clientMetrics) enableStreamCounters(reg *telemetry.Registry, i int) {
	if reg == nil {
		return
	}
	m.sWrites = reg.Counter(fmt.Sprintf("client.streams.%d.writes", i))
	m.sForces = reg.Counter(fmt.Sprintf("client.streams.%d.forces", i))
	m.sCommits = reg.Counter(fmt.Sprintf("client.streams.%d.commits", i))
}

// statsLocked snapshots the Stats view. The Stats-visible counters are
// only ever incremented under l.mu, so a caller holding l.mu reads an
// exact, mutually consistent snapshot (e.g. Forces ≥ ForceRounds +
// GroupCommits always holds within one snapshot).
func (m *clientMetrics) statsLocked() Stats {
	return Stats{
		Writes:         m.writes.Value(),
		Forces:         m.forces.Value(),
		ForceRounds:    m.forceRounds.Value(),
		GroupCommits:   m.groupCommits.Value(),
		Reads:          m.reads.Value(),
		Failovers:      m.failovers.Value(),
		Migrations:     m.migrations.Value(),
		Resends:        m.resends.Value(),
		CursorStreams:  m.cursorStreams.Value(),
		StreamRestarts: m.streamRestarts.Value(),
		PrefetchHits:   m.prefetchHits.Value(),
		PrefetchWaits:  m.prefetchWaits.Value(),
		StreamFrames:   m.streamFrames.Value(),
		StreamBusy:     m.streamBusy.Value(),
		StreamBackoffs: m.streamBackoffs.Value(),
		StreamTimeouts: m.streamTimeouts.Value(),
	}
}
