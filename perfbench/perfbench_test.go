package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"distlog"
)

// testRun sets a workload up reps times, measures it for d and runs its
// gates; tr non-nil traces it.
func testRun(t *testing.T, name string, tr *tracer, reps int, d time.Duration, hook func(distlog.Store) distlog.Store) (*phase, []float64) {
	t.Helper()
	o := &options{workload: name, seed: 7, hook: hook}
	ph, setups, err := runOnce(o, specs[name], t.TempDir(), tr, reps, d)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ph, setups
}

// TestWrappersKeepOptionalMethods checks that each wrapper answers the
// optional-interface probes of the layer above exactly as the wrapped
// value does: recman's on the log, the client's Flip on the endpoint.
func TestWrappersKeepOptionalMethods(t *testing.T) {
	type (
		forceCoalescer interface {
			ForceRoundStats() (uint64, uint64, uint64)
		}
		checkpointWriter interface {
			Checkpoint([]byte) (distlog.LSN, error)
		}
		prefixTruncator interface{ TruncatePrefix(distlog.LSN) error }
		cursorLog       interface {
			OpenCursor(distlog.LSN, distlog.Direction) (distlog.Cursor, error)
		}
		streamedLog interface {
			Streams() int
			Stream(int) *distlog.Stream
			OpenMergedCursor() (*distlog.MergedCursor, error)
		}
	)
	probes := map[string]func(any) bool{
		"ForceRoundStats": func(x any) bool { _, ok := x.(forceCoalescer); return ok },
		"Checkpoint":      func(x any) bool { _, ok := x.(checkpointWriter); return ok },
		"TruncatePrefix":  func(x any) bool { _, ok := x.(prefixTruncator); return ok },
		"OpenCursor":      func(x any) bool { _, ok := x.(cursorLog); return ok },
		"Streams":         func(x any) bool { _, ok := x.(streamedLog); return ok },
	}
	var client distlog.RecoveryLog = (*distlog.Client)(nil)
	var wrapped distlog.RecoveryLog = &traceLog{}
	for name, has := range probes {
		if has(client) != has(wrapped) {
			t.Errorf("log wrapper answers the %s probe %v, the client %v", name, has(wrapped), has(client))
		}
	}

	flips := func(ep distlog.Endpoint) bool { _, ok := ep.(interface{ Flip() }); return ok }
	a, b := distlog.NewNetwork(1), distlog.NewNetwork(2)
	for _, ep := range []distlog.Endpoint{a.Endpoint("x"), distlog.NewDualEndpoint(a.Endpoint("y"), b.Endpoint("y"))} {
		if got := flips(wrapEndpoint(ep, newTracer(), false)); got != flips(ep) {
			t.Errorf("endpoint wrapper of %T answers the Flip probe %v", ep, got)
		}
	}
}

// TestSamePath runs each workload untraced and traced and checks that
// both take the path the workload exists for, doing the same work per
// op: group commit on et1-commit, cursor streams during restart replay.
func TestSamePath(t *testing.T) {
	const d = 2 * time.Second
	for _, name := range []string{"et1-commit", "bulk-append", "restart"} {
		plain, _ := testRun(t, name, nil, 1, d, nil)
		traced, _ := testRun(t, name, newTracer(), 1, d, nil)
		for _, ph := range []*phase{plain, traced} {
			switch name {
			case "et1-commit":
				if ph.client.GroupCommits == 0 {
					t.Errorf("%s: no group commits", name)
				}
				if got := float64(ph.records) / float64(ph.ops); got < 6.9 || got > 7.1 {
					t.Errorf("%s: %.2f log records per txn, want 7", name, got)
				}
			case "restart":
				if ph.client.CursorStreams == 0 {
					t.Errorf("%s: replay issued no cursor streams", name)
				}
			}
		}
		// The same work per op, traced or not: cursor streams per
		// restart (every restart starts from the same state), forces
		// per bulk batch.
		same := func(what string, a, b float64) {
			if math.Abs(a-b) > 0.05*a {
				t.Errorf("%s: %.3f %s untraced, %.3f traced", name, a, what, b)
			}
		}
		switch name {
		case "restart":
			same("cursor streams per restart",
				float64(plain.client.CursorStreams)/float64(plain.attempted), float64(traced.client.CursorStreams)/float64(traced.attempted))
		case "bulk-append":
			same("forces per batch", float64(plain.client.Forces)*bulkBatch/float64(plain.attempted),
				float64(traced.client.Forces)*bulkBatch/float64(traced.attempted))
		}
	}
}

// slowForce delays every Store.Force by d: the sensitivity probe.
type slowForce struct {
	distlog.Store
	d time.Duration
}

func (s slowForce) Force() error {
	time.Sleep(s.d)
	return s.Store.Force()
}

// benchmarkBounds reads the end-to-end bounds from BENCHMARK.json.
func benchmarkBounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	bounds := make(map[string]float64)
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

// TestSensitivityProbe slows one boundary, Store.Force, by a fixed
// delay and checks that the benchmark flags exactly the rows (metric ×
// workload) the delay should push past their bounds. The prediction is
// written down first, from the baseline's own counts: k store forces
// per op on each replica (replicas force in parallel) add k×delay to
// an op's latency, and setupForces×delay to setup. The setups of the
// two sides alternate, so that a change in the host's speed between
// them (which moves a setup of a few milliseconds by more than its
// bound) stays out of the comparison.
func TestSensitivityProbe(t *testing.T) {
	const (
		delay = 5 * time.Millisecond
		d     = 3 * time.Second
	)
	bounds := benchmarkBounds(t)
	hook := func(s distlog.Store) distlog.Store { return slowForce{s, delay} }
	for _, name := range []string{"et1-commit", "bulk-append", "restart"} {
		sp := specs[name]
		reps := setupReps
		if name == "restart" {
			reps = 3 // each slowed setup forces ~1000 times
		}
		ph, _ := testRun(t, name, nil, 1, d, nil)
		baseSetup, slowSetup := setupTimes(t, name, reps, hook)
		base := endToEnd(sp, ph, []float64{baseSetup})

		k := float64(ph.server.ForceRounds) / float64(len(ph.lat)) / replicas
		add := k * float64(delay) / 1e6 // ms per latency op
		p50 := base["latency_p50_ms"].Value
		predicted := map[string]float64{
			"setup_s":        float64(ph.setupForces) * delay.Seconds() / base["setup_s"].Value,
			"ops_per_s":      1 - p50/(p50+add),
			"latency_p50_ms": add / p50,
			"heap_live_mb":   0,
		}
		want := make(map[string]bool)
		for metric, bound := range bounds {
			p, ok := predicted[metric]
			if !ok {
				t.Fatalf("no prediction for %s", metric)
			}
			want[metric] = p > bound
			if p > bound/1.5 && p < bound*1.5 {
				t.Errorf("%s/%s: predicted change %.3f is too close to the bound %.2f to test", name, metric, p, bound)
			}
			t.Logf("%s/%s: predicted worse by %.3f (bound %.2f): flag %v", name, metric, p, bound, want[metric])
		}

		slow, _ := testRun(t, name, nil, 1, d, hook)
		got := endToEnd(sp, slow, []float64{slowSetup})
		for metric, bound := range bounds {
			worse := (got[metric].Value - base[metric].Value) / base[metric].Value
			if metric == "ops_per_s" {
				worse = -worse
			}
			if flagged := worse > bound; flagged != want[metric] {
				t.Errorf("%s/%s: worse by %.3f (bound %.2f), flagged %v, predicted %v",
					name, metric, worse, bound, flagged, want[metric])
			} else {
				t.Logf("%s/%s: worse by %.3f: flagged %v as predicted", name, metric, worse, flagged)
			}
		}
	}
}

// setupTimes sets the workload up reps times without and reps times
// with hook, alternating, and returns the fastest setup of each side.
func setupTimes(t *testing.T, name string, reps int, hook func(distlog.Store) distlog.Store) (base, hooked float64) {
	t.Helper()
	base, hooked = math.Inf(1), math.Inf(1)
	for i := 0; i < reps; i++ {
		for _, h := range []func(distlog.Store) distlog.Store{nil, hook} {
			runtime.GC()
			t0 := time.Now()
			r, err := newRig(t.TempDir(), specs[name].kind, nil, h)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := specs[name].setup(&options{workload: name, seed: 7}, r)
			if err != nil {
				r.close()
				t.Fatal(err)
			}
			took := time.Since(t0).Seconds()
			wl.close()
			r.close()
			if h == nil {
				base = min(base, took)
			} else {
				hooked = min(hooked, took)
			}
		}
	}
	return base, hooked
}

// slowPeriod delays every Store.Force issued between from and to by d:
// a few seconds in which the service runs far slower, as behind a long
// compaction, checkpoint or volume retirement.
type slowPeriod struct {
	distlog.Store
	from, to time.Time
	d        time.Duration
}

func (s slowPeriod) Force() error {
	if now := time.Now(); now.After(s.from) && now.Before(s.to) {
		time.Sleep(s.d)
	}
	return s.Store.Force()
}

// TestSlowPeriodProbe slows bulk-append's Store.Force for half of the
// window, too few sub-windows to reach their better quartile, and
// checks that ops_per_s flags it while latency_p50_ms and heap_live_mb
// do not. The prediction is written down first: in the slowed share f
// of the window batches complete at r = p50/(p50+k×delay) of the base
// rate, so the window's rate falls by f×(1−r); the slow batches are a
// share s = f×r/(f×r+1−f) of the samples, which moves the median to the
// base run's 0.5/(1−s) quantile; the heap is taken before the window.
func TestSlowPeriodProbe(t *testing.T) {
	const (
		name  = "bulk-append"
		delay = 10 * time.Millisecond
		d     = 8 * time.Second
		slow  = 4 * time.Second
	)
	bounds := benchmarkBounds(t)
	sp := specs[name]
	ph, setups := testRun(t, name, nil, 1, d, nil)
	base := endToEnd(sp, ph, setups)

	// The warm-up takes under 2s; the slow period starts 1.5s into the
	// window at the latest, and the share it covers is measured below.
	from := time.Now().Add(3500 * time.Millisecond)
	hook := func(s distlog.Store) distlog.Store { return slowPeriod{s, from, from.Add(slow), delay} }
	slowed, _ := testRun(t, name, nil, 1, d, hook)
	got := endToEnd(sp, slowed, nil)

	lo, hi := from, from.Add(slow)
	if slowed.opened.After(lo) {
		lo = slowed.opened
	}
	if end := slowed.opened.Add(d); end.Before(hi) {
		hi = end
	}
	f := hi.Sub(lo).Seconds() / d.Seconds()
	if f < 0.45 {
		t.Fatalf("the slow period covered %.2f of the window, want at least 0.45", f)
	}
	k := float64(ph.server.ForceRounds) / float64(len(ph.lat)) / replicas
	p50 := base["latency_p50_ms"].Value
	r := p50 / (p50 + k*float64(delay)/1e6)
	share := f * r / (f*r + 1 - f)
	predicted := map[string]float64{
		"ops_per_s":      f * (1 - r),
		"latency_p50_ms": quantile(latMs(ph.lat), 0.5/(1-share))/p50 - 1,
		"heap_live_mb":   0,
	}
	for metric, p := range predicted {
		bound := bounds[metric]
		want := p > bound
		if p > bound/1.5 && p < bound*1.5 {
			t.Fatalf("%s: predicted change %.3f is too close to the bound %.2f to test", metric, p, bound)
		}
		worse := (got[metric].Value - base[metric].Value) / base[metric].Value
		if metric == "ops_per_s" {
			worse = -worse
		}
		if flagged := worse > bound; flagged != want {
			t.Errorf("%s: worse by %.3f (bound %.2f), flagged %v, predicted %.3f", metric, worse, bound, flagged, p)
		} else {
			t.Logf("%s: predicted worse by %.3f, worse by %.3f: flagged %v as predicted", metric, p, worse, flagged)
		}
	}
	// The better quartile of the sub-window throughputs, which the slow
	// period leaves alone, would have missed it.
	bs, ss := summarize(ph.lat, d, bulkBatch, false), summarize(slowed.lat, d, bulkBatch, false)
	t.Logf("sub-window better quartile: %.0f/s, %.0f/s slowed; worst %.0f/s, %.0f/s slowed", bs.subBest, ss.subBest, bs.subWorst, ss.subWorst)
}

func TestSummarizeWholeWindow(t *testing.T) {
	// 2000 ops at a steady 1ms each, completing back to back, with a
	// 100ms hiccup in the middle.
	var ss []sample
	at := time.Duration(0)
	for i := 0; i < 2000; i++ {
		lat := time.Millisecond
		if i == 1000 {
			lat = 100 * time.Millisecond
		}
		at += lat
		ss = append(ss, sample{at: at, lat: lat})
	}
	ws := summarize(ss, at, 1, false)
	if ws.n != 2000 || ws.p50 != 1 {
		t.Errorf("n %d, p50 %v ms: want 2000 samples with a median of 1 ms", ws.n, ws.p50)
	}
	// The whole window counts the hiccup; its best sub-windows do not.
	if got := fmt.Sprintf("%.1f", ws.tput); got != "952.8" {
		t.Errorf("throughput %s/s, want 952.8 (2000 ops in 2.099s)", got)
	}
	if ws.subBest < 999 || ws.subWorst > 0.9*ws.subBest {
		t.Errorf("sub-windows: better quartile %.1f/s, worst %.1f/s", ws.subBest, ws.subWorst)
	}
	// Serial ops: throughput over the ops' own time.
	if got := summarize(ss, 10*at, 64, true).tput; math.Abs(got-2000*64/at.Seconds()) > 1e-6 {
		t.Errorf("serial throughput %.1f/s", got)
	}
}
