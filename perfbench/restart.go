package main

import (
	"fmt"
	"path/filepath"
	"time"

	"distlog"
	"distlog/internal/recman"
)

// restart: 500 ET1 transactions (the BenchmarkParallelRecovery history)
// are logged with no checkpoint and the client crashes. Each op then
// restarts it: distlog.Open (interval lists, epoch, δ doubtful reads,
// CopyLog and Install) and OpenEngine replay over a copy of the
// pre-crash stable store.
//
// Before each op the servers' stores are put back as they were at the
// crash, so every op is the same restart. Without that, each restart
// leaves a new interval (its δ copies at a new epoch) on every server;
// once a server holds more intervals than one IntervalListResp packet
// carries (about 56), it sends only the newest, the client no longer
// sees the history, and recovery finds 3 of the 500 winners after
// about 50 restarts.
const restartTxns = 500

type restartBench struct {
	r      *rig
	client *distlog.Client
	dirty  map[string]int64 // the pre-crash stable store
	stable *distlog.StableStore
	snap   string // the servers' stores at the crash
	bytes  int64  // user bytes of the history
}

func setupRestart(o *options, r *rig) (workload, error) {
	b := &restartBench{r: r, snap: filepath.Join(r.dir, "snapshot")}
	client, err := r.open(1)
	if err != nil {
		return nil, err
	}
	stable := distlog.NewStableStore()
	e, err := distlog.OpenEngine(client, stable, distlog.EngineOptions{})
	if err != nil {
		client.Close()
		return nil, err
	}
	gen := distlog.NewET1(distlog.DefaultET1Scale(), o.seed)
	for i := 0; i < restartTxns; i++ {
		if _, err := distlog.ApplyET1(e, gen.Next()); err != nil {
			client.Close()
			return nil, fmt.Errorf("restart setup txn %d: %w", i, err)
		}
	}
	b.bytes = int64(e.Stats().LogBytes)
	b.dirty = stable.Snapshot()
	client.Close() // the crash every op restarts from
	if err := r.snapshot(b.snap); err != nil {
		return nil, err
	}
	return b, nil
}

// crash closes the running incarnation, if any, and puts the servers'
// stores and the stable store back as they were at the crash.
func (b *restartBench) crash() error {
	if b.client != nil {
		b.client.Close()
		b.client = nil
	}
	if err := b.r.restore(b.snap); err != nil {
		return err
	}
	b.stable = distlog.NewStableStore()
	for k, v := range b.dirty {
		b.stable.Set(k, v)
	}
	return nil
}

// restart brings up a new incarnation: Open, then OpenEngine.
func (b *restartBench) restart(l *lane) (*distlog.Engine, error) {
	f := l.enter(spCoreOpen)
	client, err := b.r.open(1)
	l.exit(f, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	b.client = client
	var log distlog.RecoveryLog = client
	if b.r.tr != nil {
		log = &traceLog{l: client, tr: b.r.tr, bound: l}
	}
	f = l.enter(spRecmanOpen)
	e, err := distlog.OpenEngine(log, b.stable, distlog.EngineOptions{})
	l.exit(f, 0, 0, 0)
	return e, err
}

// verify is the per-restart gate: every logged transaction recovered
// as a winner and the bank conserves money.
func verifyRestart(e *distlog.Engine) error {
	if got := e.Stats().RecoveredWinners; got != restartTxns {
		return fmt.Errorf("restart: recovered %d winners, want %d", got, restartTxns)
	}
	return recman.BankInvariant(e, distlog.DefaultET1Scale())
}

func (b *restartBench) measure(warmOps int64, d time.Duration) (*phase, error) {
	b.r.setDelay()
	ph := &phase{}
	var l *lane
	if b.r.tr != nil {
		l = b.r.tr.newLane()
	}
	var firstErr error
	for i := int64(0); i < warmOps; i++ {
		if err := b.crash(); err != nil {
			return nil, err
		}
		e, err := b.restart(nil)
		if err == nil {
			err = verifyRestart(e)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up restart: %w", err)
		}
	}
	b.r.openWindow()
	start := time.Now()
	for time.Since(start) < d {
		if err := b.crash(); err != nil {
			return nil, err
		}
		s0 := b.r.serverStats() // servers restart with every restore
		t0 := time.Now()
		f := l.beginOp()
		e, err := b.restart(l)
		l.exit(f, 0, 0, 0)
		t1 := time.Now()
		ph.server = serverSum(ph.server, serverDelta(b.r.serverStats(), s0))
		if err == nil {
			ph.client = clientSum(ph.client, b.client.Stats())
			err = verifyRestart(e)
		}
		ph.attempted++
		if err != nil {
			ph.failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if t1.Sub(start) <= d {
			ph.lat = append(ph.lat, sample{at: t1.Sub(start), lat: t1.Sub(t0)})
		}
	}
	b.r.closeWindow()
	ph.window = d
	ph.ops = int64(len(ph.lat))
	return ph, firstErr
}

// check asserts the path restart recovery exists to exercise: the
// replay streamed through cursors.
func (b *restartBench) check(ph *phase) error {
	if ph.client.CursorStreams == 0 {
		return fmt.Errorf("restart: replay issued no cursor streams")
	}
	return nil
}

func (b *restartBench) userBytes() int64 { return b.bytes }

func (b *restartBench) close() {
	if b.client != nil {
		b.client.Close()
	}
}
