package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"distlog"
)

// sample is one timed op: when it completed (since the window opened)
// and how long it took.
type sample struct {
	at, lat time.Duration
}

// subWindows is how many equal parts of the window the printed
// sub-window throughputs are taken over.
const subWindows = 20

// windowStats are a run's figures over its whole measured window: a
// stall of a few seconds lowers tput by its share of the window. The
// sub-window figures are printed beside them, to tell a stall or a
// burst of interference from other tenants of the host (which slows
// some sub-windows) from a change that moves every sub-window.
type windowStats struct {
	n                 int     // latency samples
	tput, p50         float64 // ops per second, median latency in ms
	subBest, subWorst float64 // better quartile and worst of the sub-window throughputs
}

// summarize computes windowStats over a window of length d. Each sample
// completes opsPer ops. Throughput is the rate of completions in the
// window; with serial, it divides by the ops' own time instead (work
// between ops is not the system's).
func summarize(ss []sample, d time.Duration, opsPer int, serial bool) windowStats {
	ws := windowStats{n: len(ss), p50: quantile(latMs(ss), 0.5)}
	rate := func(sub []sample, span time.Duration) float64 {
		if serial {
			span = 0
			for _, s := range sub {
				span += s.lat
			}
		}
		return float64(len(sub)*opsPer) / span.Seconds()
	}
	ws.tput = rate(ss, d)
	subs := make([][]sample, subWindows)
	for _, s := range ss {
		i := min(int(int64(s.at)*subWindows/int64(d)), subWindows-1)
		subs[i] = append(subs[i], s)
	}
	var tputs []float64
	for _, sub := range subs {
		if len(sub) > 0 || !serial {
			tputs = append(tputs, rate(sub, d/subWindows))
		}
	}
	ws.subBest, ws.subWorst = quantile(tputs, 0.75), quantile(tputs, 0)
	return ws
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latMs returns the samples' latencies in milliseconds.
func latMs(ss []sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.lat) / 1e6
	}
	return xs
}

// drift returns the median latency of the first and of the last tenth
// of the window's samples, by completion time.
func drift(ss []sample) (first, last float64) {
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	n := len(sorted) / 10
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return median(latMs(sorted[:n])), median(latMs(sorted[len(sorted)-n:]))
}

// liveHeap forces a GC and returns the bytes its marking found
// reachable: the live heap, independent of when collections happen to
// run.
func liveHeap() uint64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}

// sampler records, every 50ms while a workload runs, Σ servers'
// LiveBytes, the workload's acknowledged user bytes and the heap in use
// (HeapInuse: heap spans holding objects). Only its goroutine writes
// the fields until done returns.
type sampler struct {
	r    *rig
	user func() int64
	stop chan struct{}
	wg   sync.WaitGroup

	peakLive         int64
	peakHeap         uint64
	sumLive, sumUser float64
}

func startSampler(r *rig, user func() int64) *sampler {
	s := &sampler{r: r, user: user, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	live := s.r.liveBytes()
	s.peakLive = max(s.peakLive, live)
	s.sumLive += float64(live)
	s.sumUser += float64(s.user())
	m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(m)
	s.peakHeap = max(s.peakHeap, m[0].Value.Uint64()+m[1].Value.Uint64())
}

// done stops the sampler.
func (s *sampler) done() {
	close(s.stop)
	s.wg.Wait()
}

// storedPerUser is the ratio of the run's means of Σ LiveBytes and the
// acknowledged user bytes.
func (s *sampler) storedPerUser() float64 { return s.sumLive / s.sumUser }

// clientDelta returns b − a for the counters the benchmark reads.
func clientDelta(b, a distlog.ClientStats) distlog.ClientStats {
	return combineClient(b, a, func(x, y uint64) uint64 { return x - y })
}

// clientSum returns a + b for the same counters.
func clientSum(a, b distlog.ClientStats) distlog.ClientStats {
	return combineClient(a, b, func(x, y uint64) uint64 { return x + y })
}

func combineClient(a, b distlog.ClientStats, op func(x, y uint64) uint64) distlog.ClientStats {
	return distlog.ClientStats{
		Writes:         op(a.Writes, b.Writes),
		Forces:         op(a.Forces, b.Forces),
		ForceRounds:    op(a.ForceRounds, b.ForceRounds),
		GroupCommits:   op(a.GroupCommits, b.GroupCommits),
		Failovers:      op(a.Failovers, b.Failovers),
		Resends:        op(a.Resends, b.Resends),
		CursorStreams:  op(a.CursorStreams, b.CursorStreams),
		StreamRestarts: op(a.StreamRestarts, b.StreamRestarts),
		PrefetchHits:   op(a.PrefetchHits, b.PrefetchHits),
		PrefetchWaits:  op(a.PrefetchWaits, b.PrefetchWaits),
		StreamFrames:   op(a.StreamFrames, b.StreamFrames),
		StreamBusy:     op(a.StreamBusy, b.StreamBusy),
		StreamBackoffs: op(a.StreamBackoffs, b.StreamBackoffs),
		StreamTimeouts: op(a.StreamTimeouts, b.StreamTimeouts),
	}
}

// serverDelta returns b − a for the summed server counters.
func serverDelta(b, a distlog.ServerStats) distlog.ServerStats {
	return combineServer(b, a, func(x, y uint64) uint64 { return x - y })
}

// serverSum returns a + b for the same counters.
func serverSum(a, b distlog.ServerStats) distlog.ServerStats {
	return combineServer(a, b, func(x, y uint64) uint64 { return x + y })
}

func combineServer(a, b distlog.ServerStats, op func(x, y uint64) uint64) distlog.ServerStats {
	return distlog.ServerStats{
		PacketsReceived:  op(a.PacketsReceived, b.PacketsReceived),
		PacketsDropped:   op(a.PacketsDropped, b.PacketsDropped),
		RecordsWritten:   op(a.RecordsWritten, b.RecordsWritten),
		Forces:           op(a.Forces, b.Forces),
		MissingIntervals: op(a.MissingIntervals, b.MissingIntervals),
		Shed:             op(a.Shed, b.Shed),
		BusySent:         op(a.BusySent, b.BusySent),
		QueueSheds:       op(a.QueueSheds, b.QueueSheds),
		ForceRounds:      op(a.ForceRounds, b.ForceRounds),
		ForcesCoalesced:  op(a.ForcesCoalesced, b.ForcesCoalesced),
	}
}
