// Command perfbench is the repository's end-to-end benchmark of the
// replicated log. One process runs in-process log servers on memnet
// (M=3, N=2, 200µs one-way latency) and drives one of three workloads
// in a closed loop:
//
//   - et1-commit: ET1 DebitCredit transactions through recman.Engine
//     over SegStore servers with fsync, archive and compactor.
//   - bulk-append: two writers appending 100-byte records, forcing
//     every 64, over the modelled NVRAM+disk store.
//   - restart: crash and restart (Open + OpenEngine replay) over a
//     500-transaction history on SegStore servers.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload et1-commit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// wrapper in the program's path. With --trace 1 it runs the workload
// untraced and then traced, with every layer boundary wrapped, and
// reports per-layer metrics derived from the spans (layers.go). The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// gate makes the command exit 1.
//
// The end-to-end metrics are defined on every workload; "op" is a
// transaction (et1-commit), a record (bulk-append) or a restart:
//
//	setup_s         fastest of the times to build servers, clients and history
//	ops_per_s       commit_tps / append_recs_s / restarts per second, over the whole window
//	latency_p50_ms  commit_p50_ms / per batch (64 records + Force) / restart_p50_ms
//	heap_live_mb    live heap (forced GC) with the system up, after a fixed warm-up load
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"distlog"
)

// setupReps is how many times an untraced run sets up; the last setup
// is the one measured.
const setupReps = 21

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// hook wraps each server's store; the sensitivity probe test uses
	// it to slow one boundary down.
	hook func(distlog.Store) distlog.Store
}

// phase is what one measured window of a workload produced.
type phase struct {
	window    time.Duration
	ops       int64    // ops completed in the window
	lat       []sample // latency ops: txns, record batches, restarts
	attempted int64
	failed    int64
	stored    float64   // Σ LiveBytes / acknowledged user bytes (run means)
	peakBytes int64     // highest Σ LiveBytes sampled
	heapStart uint64    // live heap when the window opened, after the warm-up
	heapEnd   uint64    // live heap when it closed
	opened    time.Time // when the window opened
	heapPeak  uint64    // highest sampled heap in use (HeapInuse), warm-up included
	// setupForces is the most store forces one server ran during the
	// (last) setup.
	setupForces uint64

	// Program counters over the window.
	client                       distlog.ClientStats
	server                       distlog.ServerStats
	reclaimed, retired, deferred uint64
	records, bytes               uint64 // engine log records and bytes
}

type workload interface {
	// measure runs warmOps ops of warm-up, then the closed loop for d.
	measure(warmOps int64, d time.Duration) (*phase, error)
	// check runs the workload's correctness gates after measuring.
	check(ph *phase) error
	// userBytes is the user data acknowledged so far.
	userBytes() int64
	close()
}

// spec describes one workload.
type spec struct {
	kind       storeKind
	setup      func(o *options, r *rig) (workload, error)
	aliases    [3]string // workload names of ops_per_s, p50 and p90 (commit_tps, ...)
	primary    string    // the metric trace.overhead_frac compares
	op         string    // what one op is: txn, record or restart
	opsPerRoot int       // ops per root span (a bulk batch is 64 records)
	// warmOps ops run before the window and are excluded from it. The
	// warm-up is a fixed amount of work, not a time, so that the state
	// it leaves (and heap_live_mb with it) does not depend on speed.
	warmOps int64
	// serial: ops run one at a time with harness work between them, so
	// throughput divides by the ops' own time.
	serial bool
}

var specs = map[string]spec{
	"et1-commit": {kind: compactedSegStores, setup: setupET1, primary: "ops_per_s", op: "txn", opsPerRoot: 1, warmOps: 1000,
		aliases: [3]string{"commit_tps txns/s", "commit_p50_ms", "commit_p90_ms"}},
	"bulk-append": {kind: modelledStores, setup: setupBulk, primary: "ops_per_s", op: "record", opsPerRoot: bulkBatch, warmOps: 256 * bulkBatch,
		aliases: [3]string{"append_recs_s recs/s", "batch_p50_ms", "batch_p90_ms"}},
	"restart": {kind: segStores, setup: setupRestart, primary: "latency_p50_ms", op: "restart", opsPerRoot: 1, serial: true, warmOps: 8,
		aliases: [3]string{"restarts/s", "restart_p50_ms", "restart_p90_ms"}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "et1-commit, bulk-append or restart")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for stores and traces")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := specs[o.workload]; !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", o.workload)
		os.Exit(2)
	}
	res, err := run(&o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil { // a metric with no samples (NaN) cannot be reported
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result; the report
// lines go to w. A nil result means the run could not be set up.
func run(o *options, w *os.File) (*result, error) {
	sp := specs[o.workload]
	d := time.Duration(o.seconds * float64(time.Second))
	work := filepath.Join(o.out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)

	reps := setupReps
	if o.trace {
		reps = 1
	}
	ph, setups, err := runOnce(o, sp, work, nil, reps, d)
	if ph == nil {
		return nil, err
	}
	res := &result{Correct: err == nil, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if err != nil && ph.failed == 0 {
		res.Failed++ // a failed correctness gate
	}
	e2e := endToEnd(sp, ph, setups)
	if !o.trace {
		printEndToEnd(w, o.workload, sp, ph, e2e, setups)
		res.Metrics = e2e
		return res, err
	}
	if err != nil {
		return res, err
	}
	tr := newTracer()
	tph, _, terr := runOnce(o, sp, work, tr, 1, d)
	if tph == nil {
		return nil, terr
	}
	res.Correct = terr == nil
	res.Attempted += tph.attempted
	res.Failed += tph.failed
	if terr != nil && tph.failed == 0 {
		res.Failed++
	}
	layers := computeLayers(tr, sp, tph)
	traced := endToEnd(sp, tph, nil)
	base, got := e2e[sp.primary].Value, traced[sp.primary].Value
	over := (base - got) / base
	if sp.primary != "ops_per_s" {
		over = (got - base) / base
	}
	layers.put("trace.overhead_frac", over, "frac", 0)
	printLayers(w, o.workload, layers)
	if werr := tr.writeFile(filepath.Join(o.out, "trace-"+o.workload+".spans")); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", werr)
	}
	for _, name := range perLayerJSON {
		m, ok := layers.m[name]
		if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: m.v, Unit: m.unit}
	}
	return res, terr
}

// runOnce sets the workload up reps times (timing each setup and
// keeping the last), measures it and runs its correctness gates. It
// returns the phase (nil if nothing could be measured), the setup
// times in seconds, and the first error.
func runOnce(o *options, sp spec, work string, tr *tracer, reps int, d time.Duration) (*phase, []float64, error) {
	var setups []float64
	var r *rig
	var wl workload
	for i := 0; i < reps; i++ {
		// Each setup starts from a collected heap, so that it does not
		// pay for the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = newRig(filepath.Join(work, fmt.Sprintf("setup-%d", i)), sp.kind, tr, o.hook)
		if err == nil {
			wl, err = sp.setup(o, r)
			if err != nil {
				r.close()
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			wl.close()
			r.close()
		}
	}
	defer r.close()
	defer wl.close()
	setupForces := r.maxStoreForces()
	smp := startSampler(r, wl.userBytes)
	ph, err := wl.measure(sp.warmOps, d)
	smp.done()
	if ph == nil {
		return nil, nil, err
	}
	ph.setupForces = setupForces
	ph.stored, ph.peakBytes, ph.heapPeak = smp.storedPerUser(), smp.peakLive, smp.peakHeap
	ph.heapStart, ph.heapEnd, ph.opened = r.heapStart, r.heapEnd, r.opened
	if err == nil {
		err = wl.check(ph)
	}
	if tr != nil {
		r.flushRPCs()
	}
	return ph, setups, err
}

// endToEnd derives the end-to-end metrics from a measured phase.
//
// setup_s is the fastest of the setups: a setup is a few milliseconds
// of store creation and fsync (restart's, a few hundred of them), and
// the host's interference, CPU steal and I/O queueing, only ever adds
// to it, in bursts longer than a setup. Of the minimum, lower quartile
// and median of 21 setups, the minimum spread least between runs
// (11-19% against 12-44%). heap_live_mb is
// the live heap when the window opens, with every server, client and
// engine up and the warm-up's fixed load done: it grows with what the
// program keeps per op (indexes, buffers, cursor state), but not with
// how fast the window runs, as the heap at the window's end would.
func endToEnd(sp spec, ph *phase, setups []float64) map[string]metric {
	ws := summarize(ph.lat, ph.window, sp.opsPerRoot, sp.serial)
	m := map[string]metric{
		"ops_per_s":      {ws.tput, "1/s"},
		"latency_p50_ms": {ws.p50, "ms"},
		"heap_live_mb":   {float64(ph.heapStart) / (1 << 20), "MB"},
	}
	if setups != nil {
		m["setup_s"] = metric{quantile(setups, 0), "s"}
	}
	return m
}

func printEndToEnd(w *os.File, name string, sp spec, ph *phase, m map[string]metric, setups []float64) {
	ws := summarize(ph.lat, ph.window, sp.opsPerRoot, sp.serial)
	fmt.Fprintf(w, "workload %s: %d ops in %.1fs, %d attempted, %d failed (failed_frac %.4g)\n",
		name, ph.ops, ph.window.Seconds(), ph.attempted, ph.failed, float64(ph.failed)/math.Max(1, float64(ph.attempted)))
	line := func(key, alias, note string) {
		v := m[key]
		if alias != "" {
			alias = " [" + alias + "]"
		}
		fmt.Fprintf(w, "  %-28s %12.4f %-4s%s%s\n", key, v.Value, v.Unit, alias, note)
	}
	line("setup_s", "", fmt.Sprintf(" (fastest of %d setups; lower quartile %.4f, median %.4f)",
		len(setups), quantile(setups, 0.25), median(setups)))
	line("ops_per_s", sp.aliases[0], " (whole window)")
	line("latency_p50_ms", sp.aliases[1], fmt.Sprintf(" (whole window, n=%d)", ws.n))
	line("heap_live_mb", "", fmt.Sprintf(" (window open, after %d warm-up %ss)", sp.warmOps, sp.op))
	fmt.Fprintf(w, "  %-28s %12.4f B/B  [%s]\n", "stored_bytes_per_user_byte", ph.stored, "Σ LiveBytes / user bytes, run means")
	fmt.Fprintf(w, "  %-28s %12.4f MB   (sampled HeapInuse every 50ms; printed, not bounded)\n", "heap_peak_mb", float64(ph.heapPeak)/(1<<20))
	fmt.Fprintf(w, "  heap growth in the window: %.1f B per op\n", (float64(ph.heapEnd)-float64(ph.heapStart))/float64(ph.ops))
	fmt.Fprintf(w, "  sub-window throughput: better quartile %.4g/s, worst %.4g/s of %d sub-windows\n", ws.subBest, ws.subWorst, subWindows)
	fmt.Fprintf(w, "  path: client group commits %d, force rounds %d of %d forces, cursor streams %d; server force rounds %d, coalesced %d; %d segments reclaimed, %d volumes retired\n",
		ph.client.GroupCommits, ph.client.ForceRounds, ph.client.Forces, ph.client.CursorStreams, ph.server.ForceRounds, ph.server.ForcesCoalesced, ph.reclaimed, ph.retired)
	// The tails are printed, not bounded: on a shared host their spread
	// between runs exceeds any usable bound, up to 43% when fsync and
	// CPU are shared with other tenants.
	all := latMs(ph.lat)
	fmt.Fprintf(w, "  whole window: p50 %.3f ms, p90 %.3f ms [%s], p99 %.3f ms (%d beyond), max %.3f ms (n=%d)\n",
		quantile(all, 0.5), quantile(all, 0.9), sp.aliases[2], quantile(all, 0.99), len(all)/100, quantile(all, 1), len(all))
	first, last := drift(ph.lat)
	fmt.Fprintf(w, "  drift: median latency %.3f ms in the first tenth, %.3f ms in the last (x%.3f)\n", first, last, last/first)
}

func printLayers(w *os.File, name string, ls *layerSet) {
	fmt.Fprintf(w, "workload %s: per-layer metrics from the traced run\n", name)
	keys := make([]string, 0, len(ls.m))
	for k := range ls.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := ls.m[k]
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf(" (n=%d)", m.n)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s%s\n", k, m.v, m.unit, n)
	}
	if len(ls.table) > 0 {
		fmt.Fprintln(w, strings.Join(ls.table, "\n"))
	}
}
