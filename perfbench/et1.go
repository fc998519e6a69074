package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distlog"
)

// et1-commit: two TABS/Camelot-style transaction servers share one
// client log through one recovery-manager Engine and run ET1
// DebitCredit, each waiting for its own commit (closed loop). Every
// et1CheckpointEvery commits a sharp checkpoint truncates the log.
//
// The benchmark takes those checkpoints itself, with no transaction in
// flight: Engine.Checkpoint waits for active transactions but does not
// hold new ones off while it flushes pages and writes its record, so a
// transaction that begins meanwhile can log updates before the
// checkpoint record and commit after it; recovery then skips those
// updates. With EngineOptions.CheckpointEvery and two workers the
// conservation gate fails within seconds.
const (
	et1Workers         = 2
	et1CheckpointEvery = 50
)

// et1Note pads update records to ET1's 100-byte record size, as
// recman.ApplyET1 does.
var et1Note = make([]byte, 64)

type et1Bench struct {
	r      *rig
	client *distlog.Client
	log    distlog.RecoveryLog
	eng    *distlog.Engine
	stable *distlog.StableStore
	gens   []*distlog.ET1Generator
	acked  []int64 // acknowledged commits per worker, warm-up included

	ckpt    sync.RWMutex // txns hold it shared, checkpoints exclusive
	commits int          // commits since setup, under mu
	mu      sync.Mutex
}

func setupET1(o *options, r *rig) (workload, error) {
	b := &et1Bench{r: r, stable: distlog.NewStableStore(), acked: make([]int64, et1Workers)}
	if err := b.open(); err != nil {
		return nil, err
	}
	for w := 0; w < et1Workers; w++ {
		b.gens = append(b.gens, distlog.NewET1(distlog.DefaultET1Scale(), o.seed*et1Workers+int64(w)))
	}
	return b, nil
}

// open runs client initialization and engine recovery over the stable
// store.
func (b *et1Bench) open() error {
	client, err := b.r.open(1)
	if err != nil {
		return err
	}
	b.client = client
	b.log = client
	if b.r.tr != nil {
		b.log = &traceLog{l: client, tr: b.r.tr}
	}
	b.eng, err = distlog.OpenEngine(b.log, b.stable, distlog.EngineOptions{TruncateOnCheckpoint: true})
	return err
}

// commitCount counts one acknowledged commit and, every
// et1CheckpointEvery commits, takes the checkpoint with no transaction
// in flight.
func (b *et1Bench) commitCount(l *lane) error {
	b.mu.Lock()
	b.commits++
	due := b.commits%et1CheckpointEvery == 0
	b.mu.Unlock()
	if !due {
		return nil
	}
	b.ckpt.Lock()
	defer b.ckpt.Unlock()
	f := l.enter(spRecmanCheckpoint)
	err := b.eng.Checkpoint()
	l.exit(f, 0, 0, 0)
	return err
}

// txn runs one ET1 transaction with the records recman.ApplyET1 writes
// (three balance updates, the history count, the history line and the
// audit key, then the forced commit), on keys prefixed by the worker so
// the two workers never wait for each other's locks.
func (b *et1Bench) txn(l *lane, w int, t distlog.ET1Txn) (err error) {
	p := fmt.Sprintf("w%d/", w)
	tx := b.eng.Begin()
	defer func() {
		if err != nil {
			tx.Abort()
		}
	}()
	add := func(key string, delta int64, note []byte) (int64, error) {
		f := l.enter(spRecmanAdd)
		v, err := tx.AddNote(key, delta, note)
		l.exit(f, 0, 0, 0)
		return v, err
	}
	set := func(key string, v int64, note []byte) error {
		f := l.enter(spRecmanSet)
		err := tx.SetNote(key, v, note)
		l.exit(f, 0, 0, 0)
		return err
	}
	for _, k := range t.Keys() {
		if _, err := add(p+k, t.Delta, et1Note); err != nil {
			return err
		}
	}
	seq, err := add(p+"history/count", 1, nil)
	if err != nil {
		return err
	}
	if err := set(fmt.Sprintf("%shistory/item/%d", p, seq), t.Delta, []byte(t.HistoryLine())); err != nil {
		return err
	}
	if err := set(p+"audit/last_account", int64(t.Account), et1Note); err != nil {
		return err
	}
	f := l.enter(spRecmanCommit)
	err = tx.Commit()
	l.exit(f, 0, 0, 0)
	return err
}

func (b *et1Bench) measure(warmOps int64, d time.Duration) (*phase, error) {
	b.r.setDelay()
	if _, err := b.loop(warmOps, 0); err != nil {
		return nil, fmt.Errorf("warm-up txn: %w", err)
	}
	c0, s0, st0 := b.client.Stats(), b.r.serverStats(), b.eng.Stats()
	rec0, ret0, def0 := b.r.compactorStats()
	b.r.openWindow()
	ph, err := b.loop(0, d)
	b.r.closeWindow()
	ph.client = clientDelta(b.client.Stats(), c0)
	ph.server = serverDelta(b.r.serverStats(), s0)
	rec1, ret1, def1 := b.r.compactorStats()
	ph.reclaimed, ph.retired, ph.deferred = rec1-rec0, ret1-ret0, def1-def0
	st := b.eng.Stats()
	ph.records, ph.bytes = st.LogRecords-st0.LogRecords, st.LogBytes-st0.LogBytes
	return ph, err
}

// loop runs the workers' closed loops until they have committed n txns
// between them (n > 0, the warm-up: a failed txn ends it) or for d (the
// measured window: a failed txn is counted and the loop goes on).
func (b *et1Bench) loop(n int64, d time.Duration) (*phase, error) {
	ph := &phase{window: d}
	var mu sync.Mutex
	var firstErr error
	var committed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < et1Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var l *lane
			if b.r.tr != nil {
				l = b.r.tr.newLane()
			}
			var local []sample
			var attempted, failed int64
			defer func() {
				mu.Lock()
				ph.lat = append(ph.lat, local...)
				ph.attempted += attempted
				ph.failed += failed
				mu.Unlock()
			}()
			for n > 0 && committed.Load() < n || n == 0 && time.Since(start) < d {
				t0 := time.Now()
				f := l.beginOp()
				b.ckpt.RLock()
				err := b.txn(l, w, b.gens[w].Next())
				b.ckpt.RUnlock()
				if err == nil {
					b.acked[w]++
					err = b.commitCount(l)
				}
				l.exit(f, 0, 0, 0)
				t1 := time.Now()
				attempted++
				if err != nil {
					failed++
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					if n > 0 {
						return
					}
					continue
				}
				committed.Add(1)
				if n == 0 && t1.Sub(start) <= d {
					local = append(local, sample{at: t1.Sub(start), lat: t1.Sub(t0)})
				}
			}
		}(w)
	}
	wg.Wait()
	ph.ops = int64(len(ph.lat))
	return ph, firstErr
}

// check crashes the client, recovers, and verifies that every worker's
// partition conserves money (branch = teller = account totals) and that
// its history count equals its acknowledged commits. It also asserts
// the path this workload exists to exercise: group commit on the
// client, and segment reclamation and volume retirement inside the
// window. (Server-side force coalescing needs two sessions forcing one
// store at once; with one client log it cannot happen here, so it is
// reported, not asserted.)
func (b *et1Bench) check(ph *phase) error {
	if ph.client.GroupCommits == 0 {
		return fmt.Errorf("et1-commit: no group commits on the client")
	}
	if ph.reclaimed == 0 || ph.retired == 0 {
		return fmt.Errorf("et1-commit: retention idle in the window (%d segments reclaimed, %d volumes retired)", ph.reclaimed, ph.retired)
	}
	b.client.Close() // crash: no checkpoint, no flush
	b.r.clearDelay()
	if err := b.open(); err != nil {
		return fmt.Errorf("et1-commit: recovery: %w", err)
	}
	var sums [et1Workers][3]int64
	for key, v := range b.stable.Snapshot() {
		var w int
		if _, err := fmt.Sscanf(key, "w%d/", &w); err != nil || w < 0 || w >= et1Workers {
			continue
		}
		_, rest, _ := strings.Cut(key, "/")
		for i, kind := range []string{"branch/", "teller/", "account/"} {
			if strings.HasPrefix(rest, kind) {
				sums[w][i] += v
			}
		}
	}
	for w := 0; w < et1Workers; w++ {
		if sums[w][0] != sums[w][1] || sums[w][1] != sums[w][2] {
			return fmt.Errorf("et1-commit: worker %d conservation violated: branches %d, tellers %d, accounts %d", w, sums[w][0], sums[w][1], sums[w][2])
		}
		if got := b.eng.Get(fmt.Sprintf("w%d/history/count", w)); got != b.acked[w] {
			return fmt.Errorf("et1-commit: worker %d history count %d, want %d acknowledged commits", w, got, b.acked[w])
		}
	}
	return nil
}

func (b *et1Bench) userBytes() int64 { return int64(b.eng.Stats().LogBytes) }

func (b *et1Bench) close() { b.client.Close() }
