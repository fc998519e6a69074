package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/server"
	"distlog/internal/storage"
	"distlog/internal/telemetry"
	"distlog/internal/transport"
)

// telemetryCluster starts m servers and a client that all share one
// registry (with tracing enabled), so the trace interleaves client and
// server LSN-lifecycle events the way a single-process deployment
// would see them.
func telemetryCluster(t testing.TB, m, n int) (*ReplicatedLog, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.EnableTrace(4096)
	net := transport.NewNetwork(11)
	net.SetTelemetry(reg)
	var names []string
	for i := 1; i <= m; i++ {
		name := fmt.Sprintf("s%d", i)
		names = append(names, name)
		srv := server.New(server.Config{
			Name:      name,
			Store:     storage.Instrument(storage.NewMemStore(), reg, "mem"),
			Endpoint:  net.Endpoint(name),
			Epochs:    server.NewMemEpochHost(),
			Telemetry: reg,
		})
		srv.Start()
		t.Cleanup(srv.Stop)
	}
	l, err := Open(Config{
		ClientID:    1,
		Servers:     names,
		N:           n,
		Endpoint:    net.Endpoint("client"),
		CallTimeout: 2 * time.Second,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, reg
}

// TestTraceReconstructsForceRound is the subsystem's acceptance test:
// a single forced WriteLog on a 3-server cluster must be fully
// reconstructable from the trace — write, then per server flush before
// append before force before ack, then stable after every ack — with
// consistent LSN and epoch tags throughout.
func TestTraceReconstructsForceRound(t *testing.T) {
	l, reg := telemetryCluster(t, 3, 3)

	lsn, err := l.ForceLog([]byte("the forced record"))
	if err != nil {
		t.Fatal(err)
	}
	epoch := uint64(l.Epoch())
	servers := l.WriteSet()
	if len(servers) != 3 {
		t.Fatalf("write set = %v", servers)
	}

	// Index this LSN's lifecycle events: kind+node -> seq.
	type key struct {
		kind telemetry.Kind
		node string
	}
	seq := make(map[key]uint64)
	var writeSeq, stableSeq uint64
	for _, ev := range reg.Trace().Events() {
		if ev.LSN != uint64(lsn) {
			continue
		}
		if ev.Epoch != epoch {
			t.Fatalf("event %v has epoch %d, client epoch %d", ev, ev.Epoch, epoch)
		}
		switch ev.Kind {
		case telemetry.EvWrite:
			writeSeq = ev.Seq
		case telemetry.EvStable:
			stableSeq = ev.Seq
		default:
			seq[key{ev.Kind, ev.Node}] = ev.Seq
		}
	}
	if writeSeq == 0 {
		t.Fatalf("no EvWrite for lsn %d", lsn)
	}
	if stableSeq == 0 {
		t.Fatalf("no EvStable for lsn %d", lsn)
	}
	for _, s := range servers {
		flush := seq[key{telemetry.EvFlush, s}]
		app := seq[key{telemetry.EvAppend, s}]
		force := seq[key{telemetry.EvForce, s}]
		ack := seq[key{telemetry.EvAck, s}]
		if flush == 0 || app == 0 || force == 0 || ack == 0 {
			t.Fatalf("server %s missing lifecycle events: flush=%d append=%d force=%d ack=%d\n%s",
				s, flush, app, force, ack, telemetry.FormatEvents(reg.Trace().Events()))
		}
		if !(writeSeq < flush && flush < app && app < force && force < ack && ack < stableSeq) {
			t.Fatalf("server %s out of order: write=%d flush=%d append=%d force=%d ack=%d stable=%d\n%s",
				s, writeSeq, flush, app, force, ack, stableSeq,
				telemetry.FormatEvents(reg.Trace().Events()))
		}
	}

	// The registry's aggregate counters corroborate the round: one
	// client round, three server forces, three acks.
	snap := reg.Snapshot()
	if got := snap.Counters["client.force_rounds"]; got != 1 {
		t.Fatalf("client.force_rounds = %d, want 1", got)
	}
	if got := snap.Counters["server.forces"]; got != 3 {
		t.Fatalf("server.forces = %d, want 3", got)
	}
	if got := snap.Counters["server.acks_sent"]; got != 3 {
		t.Fatalf("server.acks_sent = %d, want 3", got)
	}
	if h := snap.Histograms["client.force.latency_ns"]; h.Count != 1 {
		t.Fatalf("client.force.latency_ns count = %d, want 1", h.Count)
	}
	if h := snap.Histograms["storage.mem.force_latency_ns"]; h.Count != 3 {
		t.Fatalf("storage.mem.force_latency_ns count = %d, want 3", h.Count)
	}
	if snap.Counters["net.mem.packets"] == 0 {
		t.Fatalf("memnet telemetry saw no packets")
	}
}

// TestStatsForceRoundStatsConsistent drives concurrent forces while
// sampling both legacy stats APIs. Since both are views over the same
// registry counters read under l.mu, every snapshot must satisfy
// Forces ≥ ForceRounds + GroupCommits, and the two APIs must agree
// exactly once the writers quiesce.
func TestStatsForceRoundStatsConsistent(t *testing.T) {
	l, _ := telemetryCluster(t, 3, 2)

	const writers = 4
	const perWriter = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.ForceLog([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("force: %v", err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	for sampling := true; sampling; {
		select {
		case <-stop:
			sampling = false
		default:
		}
		s := l.Stats()
		if s.Forces < s.ForceRounds+s.GroupCommits {
			t.Fatalf("inconsistent snapshot: Forces=%d < ForceRounds=%d + GroupCommits=%d",
				s.Forces, s.ForceRounds, s.GroupCommits)
		}
		forces, rounds, gc := l.ForceRoundStats()
		if forces < rounds+gc {
			t.Fatalf("inconsistent ForceRoundStats: %d < %d + %d", forces, rounds, gc)
		}
	}

	s := l.Stats()
	forces, rounds, gc := l.ForceRoundStats()
	if s.Forces != forces || s.ForceRounds != rounds || s.GroupCommits != gc {
		t.Fatalf("APIs disagree after quiesce: Stats=%+v ForceRoundStats=(%d,%d,%d)",
			s, forces, rounds, gc)
	}
	if forces != writers*perWriter {
		t.Fatalf("forces = %d, want %d", forces, writers*perWriter)
	}
	if rounds+gc > forces || rounds == 0 {
		t.Fatalf("rounds=%d gc=%d forces=%d", rounds, gc, forces)
	}
}

// TestClientPrivateRegistry checks the no-telemetry configuration: a
// client opened without a Registry still counts Stats correctly and
// emits no trace events anywhere.
func TestClientPrivateRegistry(t *testing.T) {
	net := transport.NewNetwork(3)
	for _, name := range []string{"a", "b"} {
		srv := server.New(server.Config{
			Name:     name,
			Store:    storage.NewMemStore(),
			Endpoint: net.Endpoint(name),
			Epochs:   server.NewMemEpochHost(),
		})
		srv.Start()
		t.Cleanup(srv.Stop)
	}
	l, err := Open(Config{
		ClientID:    9,
		Servers:     []string{"a", "b"},
		N:           2,
		Endpoint:    net.Endpoint("client"),
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.ForceLog([]byte("x")); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Writes != 1 || s.Forces != 1 || s.ForceRounds != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if l.m.trace != nil {
		t.Fatalf("private registry must not have tracing enabled")
	}
}

// TestSharedRegistryMetricNames pins the metric families the exposure
// layer (logserverd -metrics, logctl stats) depends on.
func TestSharedRegistryMetricNames(t *testing.T) {
	l, reg := telemetryCluster(t, 3, 2)
	if _, err := l.ForceLog([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadLog(l.EndOfLog()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"client.writes", "client.forces", "client.force_rounds",
		"client.group_commits", "client.reads",
		"client.failovers", "client.resends", "client.force.acks",
		"client.force.nacks", "client.force.timeouts",
		"server.packets_received", "server.packets_dropped",
		"server.records_appended", "server.forces", "server.acks_sent",
		"server.nacks_sent", "server.reads_served", "server.sheds",
		"net.mem.packets", "net.mem.bytes", "net.mem.drops",
		"storage.mem.appends", "storage.mem.bytes_appended", "storage.mem.forces",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from shared registry", name)
		}
	}
	for _, name := range []string{
		"client.force.latency_ns", "client.force.records_per_round",
		"server.force.latency_ns", "server.append_to_force_ns",
		"storage.mem.force_latency_ns",
	} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("histogram %q missing from shared registry", name)
		}
	}
	if _, ok := snap.Gauges["server.sessions"]; !ok {
		t.Errorf("gauge server.sessions missing")
	}
	if record.LSN(snap.Counters["client.writes"]) == 0 {
		t.Errorf("client.writes did not count")
	}
}
