package recman

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/workload"
)

// testLog is an in-memory recovery log whose crash semantics mirror
// the replicated log: records written but never forced are lost.
type testLog struct {
	mu             sync.Mutex
	recs           []record.Record
	forced         int
	writes, forces uint64
}

func newTestLog() *testLog { return &testLog{} }

func (l *testLog) WriteLog(data []byte) (record.LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := record.LSN(len(l.recs) + 1)
	l.recs = append(l.recs, record.Record{LSN: lsn, Epoch: 1, Present: true, Data: append([]byte(nil), data...)})
	l.writes++
	return lsn, nil
}

func (l *testLog) Force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.forced = len(l.recs)
	l.forces++
	return nil
}

func (l *testLog) ReadRecord(lsn record.LSN) (record.Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == 0 || int(lsn) > len(l.recs) {
		return record.Record{}, fmt.Errorf("testlog: LSN %d beyond end", lsn)
	}
	return l.recs[lsn-1].Clone(), nil
}

func (l *testLog) EndOfLog() record.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return record.LSN(len(l.recs))
}

// crash discards unforced records, as a real crash would.
func (l *testLog) crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = l.recs[:l.forced]
}

func openEngine(t *testing.T, log Log, stable *StableStore, opts Options) *Engine {
	t.Helper()
	e, err := Open(log, stable, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func modes(t *testing.T, fn func(t *testing.T, opts Options)) {
	for _, split := range []bool{false, true} {
		name := "combined"
		if split {
			name = "split"
		}
		t.Run(name, func(t *testing.T) { fn(t, Options{Split: split}) })
	}
}

func TestCommitMakesValuesVisible(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		e := openEngine(t, newTestLog(), NewStableStore(), opts)
		txn := e.Begin()
		if err := txn.Set("a", 5); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Add("a", 2); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := e.Get("a"); got != 7 {
			t.Fatalf("a = %d", got)
		}
		if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
			t.Fatalf("double commit: %v", err)
		}
	})
}

func TestAbortRollsBack(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		e := openEngine(t, newTestLog(), NewStableStore(), opts)
		t1 := e.Begin()
		t1.Set("a", 10)
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		t2 := e.Begin()
		t2.Set("a", 99)
		t2.Set("b", 1)
		if err := t2.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := e.Get("a"); got != 10 {
			t.Fatalf("a = %d after abort", got)
		}
		if got := e.Get("b"); got != 0 {
			t.Fatalf("b = %d after abort", got)
		}
		s := e.Stats()
		if opts.Split {
			if s.AbortsFromCache != 1 || s.AbortLogReads != 0 {
				t.Fatalf("split abort stats: %+v", s)
			}
		} else {
			if s.AbortLogReads != 2 {
				t.Fatalf("combined abort stats: %+v", s)
			}
		}
	})
}

func TestStrictTwoPhaseLocking(t *testing.T) {
	e := openEngine(t, newTestLog(), NewStableStore(), Options{LockTimeout: 100 * time.Millisecond})
	t1 := e.Begin()
	if _, err := t1.Get("k"); err != nil {
		t.Fatal(err)
	}
	// A second transaction blocks until t1 finishes.
	t2 := e.Begin()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := t2.Get("k")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("t2 lock: %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("t2 acquired the lock while t1 held it")
	}
	t2.Commit()
}

func TestLockTimeout(t *testing.T) {
	e := openEngine(t, newTestLog(), NewStableStore(), Options{LockTimeout: 50 * time.Millisecond})
	t1 := e.Begin()
	t1.Set("k", 1)
	t2 := e.Begin()
	if _, err := t2.Get("k"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("t2.Get = %v", err)
	}
	t1.Commit()
	t2.Abort()
}

func TestSavepointPartialRollback(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		e := openEngine(t, newTestLog(), NewStableStore(), opts)
		txn := e.Begin()
		txn.Set("a", 1)
		sp := txn.Savepoint()
		txn.Set("a", 2)
		txn.Set("b", 3)
		if err := txn.RollbackTo(sp); err != nil {
			t.Fatal(err)
		}
		txn.Set("c", 4)
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if e.Get("a") != 1 || e.Get("b") != 0 || e.Get("c") != 4 {
			t.Fatalf("state: a=%d b=%d c=%d", e.Get("a"), e.Get("b"), e.Get("c"))
		}
	})
}

func TestSavepointOutOfRange(t *testing.T) {
	e := openEngine(t, newTestLog(), NewStableStore(), Options{})
	txn := e.Begin()
	if err := txn.RollbackTo(5); err == nil {
		t.Fatal("bogus savepoint accepted")
	}
	txn.Abort()
}

func TestCrashRecoveryCommittedSurvive(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		log := newTestLog()
		stable := NewStableStore()
		e := openEngine(t, log, stable, opts)
		for i := 0; i < 5; i++ {
			txn := e.Begin()
			txn.Set(fmt.Sprintf("k%d", i), int64(i*10))
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		log.crash() // nothing unforced; stable store untouched (no flushes)

		e2 := openEngine(t, log, stable, opts)
		for i := 0; i < 5; i++ {
			if got := e2.Get(fmt.Sprintf("k%d", i)); got != int64(i*10) {
				t.Fatalf("k%d = %d after recovery", i, got)
			}
		}
		if e2.Stats().RecoveredWinners != 5 {
			t.Fatalf("winners = %d", e2.Stats().RecoveredWinners)
		}
	})
}

func TestCrashRecoveryUncommittedRolledBack(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		log := newTestLog()
		stable := NewStableStore()
		e := openEngine(t, log, stable, opts)
		c := e.Begin()
		c.Set("committed", 1)
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		loser := e.Begin()
		loser.Set("committed", 99)
		loser.Set("dirty", 7)
		// Steal: clean the loser's pages to the stable store before it
		// commits — the case undo information exists for.
		if err := e.FlushKey("committed"); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushKey("dirty"); err != nil {
			t.Fatal(err)
		}
		if stable.Get("committed") != 99 {
			t.Fatal("steal did not reach the stable store")
		}
		log.crash() // loser never committed

		e2 := openEngine(t, log, stable, opts)
		if got := e2.Get("committed"); got != 1 {
			t.Fatalf("committed = %d after recovery, want 1", got)
		}
		if got := e2.Get("dirty"); got != 0 {
			t.Fatalf("dirty = %d after recovery, want 0", got)
		}
		if e2.Stats().RecoveredLosers != 1 {
			t.Fatalf("losers = %d", e2.Stats().RecoveredLosers)
		}
	})
}

func TestCrashRecoveryLoserThenWinnerSameKey(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		log := newTestLog()
		stable := NewStableStore()
		e := openEngine(t, log, stable, opts)
		// Loser updates k, is stolen, aborts (restoring k), then a
		// winner updates k. Recovery must keep the winner's value.
		base := e.Begin()
		base.Set("k", 5)
		if err := base.Commit(); err != nil {
			t.Fatal(err)
		}
		loser := e.Begin()
		loser.Set("k", 50)
		if err := e.FlushKey("k"); err != nil {
			t.Fatal(err)
		}
		if err := loser.Abort(); err != nil {
			t.Fatal(err)
		}
		winner := e.Begin()
		winner.Set("k", 6)
		if err := winner.Commit(); err != nil {
			t.Fatal(err)
		}
		log.crash()

		e2 := openEngine(t, log, stable, opts)
		if got := e2.Get("k"); got != 6 {
			t.Fatalf("k = %d after recovery, want 6", got)
		}
	})
}

func TestCheckpointBoundsRecovery(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		log := newTestLog()
		stable := NewStableStore()
		e := openEngine(t, log, stable, opts)
		for i := 0; i < 10; i++ {
			txn := e.Begin()
			txn.Set(fmt.Sprintf("k%d", i), int64(i))
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		txn := e.Begin()
		txn.Set("after", 42)
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		log.crash()

		e2 := openEngine(t, log, stable, opts)
		// Only the post-checkpoint winner is replayed...
		if e2.Stats().RecoveredWinners != 1 {
			t.Fatalf("winners = %d, want 1 (checkpoint should bound the scan)", e2.Stats().RecoveredWinners)
		}
		// ...but the full state is correct.
		for i := 0; i < 10; i++ {
			if got := e2.Get(fmt.Sprintf("k%d", i)); got != int64(i) {
				t.Fatalf("k%d = %d", i, got)
			}
		}
		if e2.Get("after") != 42 {
			t.Fatalf("after = %d", e2.Get("after"))
		}
	})
}

func TestAutomaticCheckpointEvery(t *testing.T) {
	log := newTestLog()
	e := openEngine(t, log, NewStableStore(), Options{CheckpointEvery: 3})
	for i := 0; i < 7; i++ {
		txn := e.Begin()
		txn.Set("k", int64(i))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if ck := e.Stats().Checkpoints; ck != 2 {
		t.Fatalf("checkpoints = %d, want 2", ck)
	}
}

func TestSplitModeSavesLogVolume(t *testing.T) {
	// The same workload in both modes: split writes materially fewer
	// log bytes when transactions commit (undo components never reach
	// the log).
	run := func(opts Options) uint64 {
		log := newTestLog()
		e, err := Open(log, NewStableStore(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			txn := e.Begin()
			for j := 0; j < 5; j++ {
				txn.Set(fmt.Sprintf("k%d", j), int64(i+j))
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Stats().LogBytes
	}
	combined := run(Options{})
	split := run(Options{Split: true})
	if split >= combined {
		t.Fatalf("split logged %d bytes, combined %d: no savings", split, combined)
	}
}

func TestSplitStatsAccounting(t *testing.T) {
	log := newTestLog()
	e := openEngine(t, log, NewStableStore(), Options{Split: true})
	txn := e.Begin()
	txn.Set("a", 1)
	txn.Set("b", 2)
	txn.Commit()
	s := e.SplitStats()
	if s.UndoCached != 2 || s.UndoDropped != 2 || s.UndoLogged != 0 {
		t.Fatalf("split stats: %+v", s)
	}
	// A stolen page logs its undo.
	t2 := e.Begin()
	t2.Set("a", 9)
	e.FlushKey("a")
	s = e.SplitStats()
	if s.UndoLogged != 1 {
		t.Fatalf("after steal: %+v", s)
	}
	t2.Abort()
}

func TestET1TransactionsAndInvariant(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		log := newTestLog()
		e := openEngine(t, log, NewStableStore(), opts)
		scale := workload.ET1Scale{Branches: 3, Tellers: 30, Accounts: 300}
		gen := workload.NewET1(scale, 11)
		for i := 0; i < 100; i++ {
			if _, err := ApplyET1(e, gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if err := BankInvariant(e, scale); err != nil {
			t.Fatal(err)
		}
		if got := e.Get("history/count"); got != 100 {
			t.Fatalf("history/count = %d", got)
		}
		// Seven log records per transaction (6 updates + 1 commit).
		if recs := e.Stats().LogRecords; recs != 700 {
			t.Fatalf("log records = %d, want 700", recs)
		}
		// One force per transaction.
		if log.forces != 100 {
			t.Fatalf("forces = %d, want 100", log.forces)
		}
	})
}

func TestET1SurvivesCrash(t *testing.T) {
	log := newTestLog()
	stable := NewStableStore()
	e := openEngine(t, log, stable, Options{})
	gen := workload.NewET1(workload.ET1Scale{Branches: 2, Tellers: 20, Accounts: 200}, 3)
	for i := 0; i < 50; i++ {
		if _, err := ApplyET1(e, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	log.crash()
	e2 := openEngine(t, log, stable, Options{})
	if err := BankInvariant(e2, workload.ET1Scale{}); err != nil {
		t.Fatal(err)
	}
	if got := e2.Get("history/count"); got != 50 {
		t.Fatalf("history/count = %d after recovery", got)
	}
}

func TestConcurrentET1(t *testing.T) {
	log := newTestLog()
	e := openEngine(t, log, NewStableStore(), Options{LockTimeout: 5 * time.Second})
	scale := workload.ET1Scale{Branches: 4, Tellers: 40, Accounts: 400}
	const workers = 4
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewET1(scale, seed)
			for i := 0; i < perWorker; i++ {
				if _, err := ApplyET1(e, gen.Next()); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := BankInvariant(e, scale); err != nil {
		t.Fatal(err)
	}
	if got := e.Get("history/count"); got != workers*perWorker {
		t.Fatalf("history/count = %d", got)
	}
}

func TestLongRunningWorkstationTransactions(t *testing.T) {
	log := newTestLog()
	e := openEngine(t, log, NewStableStore(), Options{Split: true})
	gen := workload.NewLongTxn(50, 5)
	for round := 0; round < 5; round++ {
		txn := e.Begin()
		var savepoints []int
		for _, op := range gen.Next(100) {
			switch op.Kind {
			case "update":
				if _, err := txn.Add(op.Key, op.Delta); err != nil {
					t.Fatal(err)
				}
			case "savepoint":
				savepoints = append(savepoints, txn.Savepoint())
			case "rollback":
				if err := txn.RollbackTo(savepoints[op.Target]); err != nil {
					t.Fatal(err)
				}
				savepoints = savepoints[:op.Target]
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	// Recovering twice (a crash during recovery's aftermath) yields the
	// same state: the procedure is restartable.
	log := newTestLog()
	stable := NewStableStore()
	e := openEngine(t, log, stable, Options{})
	txn := e.Begin()
	txn.Set("x", 123)
	txn.Commit()
	log.crash()

	openEngine(t, log, stable, Options{})
	snap1 := stable.Snapshot()
	openEngine(t, log, stable, Options{})
	snap2 := stable.Snapshot()
	if len(snap1) != len(snap2) {
		t.Fatal("recovery not idempotent")
	}
	for k, v := range snap1 {
		if snap2[k] != v {
			t.Fatalf("key %q: %d vs %d", k, v, snap2[k])
		}
	}
}

func BenchmarkET1Combined(b *testing.B) {
	benchET1(b, Options{})
}

func BenchmarkET1Split(b *testing.B) {
	benchET1(b, Options{Split: true})
}

func benchET1(b *testing.B, opts Options) {
	log := newTestLog()
	e, err := Open(log, NewStableStore(), opts)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewET1(workload.DefaultScale(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyET1(e, gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// truncLog is a testLog that also supports prefix truncation.
type truncLog struct {
	testLog
	truncatedAt []record.LSN
}

func (l *truncLog) TruncatePrefix(before record.LSN) error {
	l.truncatedAt = append(l.truncatedAt, before)
	return nil
}

func TestCheckpointTruncatesLogWhenEnabled(t *testing.T) {
	log := &truncLog{}
	e := openEngine(t, log, NewStableStore(), Options{TruncateOnCheckpoint: true})
	for i := 0; i < 5; i++ {
		txn := e.Begin()
		txn.Set("k", int64(i))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(log.truncatedAt) != 1 {
		t.Fatalf("truncations = %v, want exactly one", log.truncatedAt)
	}
	// The truncation point is the checkpoint record itself: everything
	// before it is unnecessary for node recovery.
	if got := log.truncatedAt[0]; got != log.EndOfLog() {
		t.Fatalf("truncated at %d, checkpoint record is %d", got, log.EndOfLog())
	}
}

func TestCheckpointNoTruncationByDefault(t *testing.T) {
	log := &truncLog{}
	e := openEngine(t, log, NewStableStore(), Options{})
	txn := e.Begin()
	txn.Set("k", 1)
	txn.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(log.truncatedAt) != 0 {
		t.Fatalf("unexpected truncations: %v", log.truncatedAt)
	}
}

func TestCheckpointTruncationOnPlainLogIsNoop(t *testing.T) {
	// A log without the capability is left alone.
	log := newTestLog()
	e := openEngine(t, log, NewStableStore(), Options{TruncateOnCheckpoint: true})
	txn := e.Begin()
	txn.Set("k", 1)
	txn.Commit()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestMediaRecoveryFromDump exercises the Section 5.3 dump function:
// the stable store is dumped to a file, more transactions run (with a
// checkpoint newer than the dump), and then the "media" is destroyed.
// Restoring the dump and replaying the whole log (FullReplay ignores
// the too-new checkpoint) reconstructs every committed transaction.
func TestMediaRecoveryFromDump(t *testing.T) {
	dir := t.TempDir()
	log := newTestLog()
	stable := NewStableStore()
	e := openEngine(t, log, stable, Options{})
	for i := 0; i < 10; i++ {
		txn := e.Begin()
		txn.Set(fmt.Sprintf("k%d", i), int64(i))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Periodic dump: flush everything and save the stable store.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dumpPath := dir + "/dump.json"
	if err := stable.SaveFile(dumpPath); err != nil {
		t.Fatal(err)
	}
	// Life continues: more commits and another checkpoint, both newer
	// than the dump.
	for i := 10; i < 20; i++ {
		txn := e.Begin()
		txn.Set(fmt.Sprintf("k%d", i), int64(i))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	txn := e.Begin()
	txn.Set("k5", 555)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Media failure: the stable store is destroyed. Restore the dump.
	restored, err := LoadStableStore(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Open(log, restored, Options{FullReplay: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		want := int64(i)
		if i == 5 {
			want = 555
		}
		if got := e2.Get(fmt.Sprintf("k%d", i)); got != want {
			t.Fatalf("k%d = %d after media recovery, want %d", i, got, want)
		}
	}

	// Sanity: a normal (checkpoint-bounded) recovery over the stale
	// dump would be wrong — it must only be used with FullReplay.
	restored2, err := LoadStableStore(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := Open(log, restored2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e3.Get("k15"); got == 15 {
		t.Skip("checkpoint-bounded recovery accidentally correct; scenario needs adjusting")
	}
}

// ckptGapLog holds the checkpoint record's write open until a
// transaction's update record is logged, or a grace period passes
// without one: the window in which a transaction that began after the
// checkpoint's flush could log before the checkpoint record.
type ckptGapLog struct {
	*testLog
	inCkpt  chan struct{} // closed when the checkpoint record's write begins
	updated chan struct{} // signalled by each update record's write
}

func (l *ckptGapLog) WriteLog(data []byte) (record.LSN, error) {
	if r, err := decodeLogRec(data); err == nil {
		switch r.op {
		case opCheckpoint:
			close(l.inCkpt)
			select {
			case <-l.updated:
			case <-time.After(200 * time.Millisecond):
			}
		case opUpdate:
			select {
			case l.updated <- struct{}{}:
			default:
			}
		}
	}
	return l.testLog.WriteLog(data)
}

// TestCheckpointHoldsOffNewTransactions pins the checkpoint admission
// race: Checkpoint waited for active transactions but let new ones
// begin while it flushed pages and wrote its record. A transaction
// that logged an update before the checkpoint record and committed
// after it was then lost — recovery starts at the checkpoint and skips
// the update, and the flush had already run. Begin must wait until
// the checkpoint record is written.
func TestCheckpointHoldsOffNewTransactions(t *testing.T) {
	log := &ckptGapLog{testLog: newTestLog(), inCkpt: make(chan struct{}), updated: make(chan struct{}, 1)}
	stable := NewStableStore()
	e := openEngine(t, log, stable, Options{})

	ckptErr := make(chan error, 1)
	go func() { ckptErr <- e.Checkpoint() }()
	<-log.inCkpt
	txnErr := make(chan error, 1)
	go func() {
		tx := e.Begin()
		if err := tx.Set("k", 42); err != nil {
			txnErr <- err
			return
		}
		txnErr <- tx.Commit()
	}()
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
	if err := <-txnErr; err != nil {
		t.Fatal(err)
	}

	log.crash()
	e2 := openEngine(t, log.testLog, stable, Options{})
	if got := e2.Get("k"); got != 42 {
		t.Fatalf("committed k = %d after recovery, want 42", got)
	}
}

// slowCkptLog is a truncLog with the replicated log's one-call
// Checkpoint, which may wait out a round trip (the δ bound on
// unacknowledged records) before the checkpoint record takes its LSN.
type slowCkptLog struct {
	truncLog
}

func (l *slowCkptLog) Checkpoint(data []byte) (record.LSN, error) {
	time.Sleep(200 * time.Microsecond)
	lsn, err := l.WriteLog(data)
	if err != nil {
		return 0, err
	}
	if err := l.Force(); err != nil {
		return 0, err
	}
	return lsn, l.TruncatePrefix(lsn)
}

// TestAutomaticCheckpointsUnderConcurrentET1 is the same race under
// load: two workers on per-worker keys share one log while a commit
// triggers a checkpoint every 50; the log crashes right after the
// first checkpoint, before a later one could flush a lost update back
// into the stable store, and recovery must restore every acknowledged
// transaction.
func TestAutomaticCheckpointsUnderConcurrentET1(t *testing.T) {
	scale := workload.ET1Scale{Branches: 2, Tellers: 20, Accounts: 200}
	opts := Options{CheckpointEvery: 50, TruncateOnCheckpoint: true}
	const workers = 2
	for round := 0; round < 50; round++ {
		log := &slowCkptLog{}
		stable := NewStableStore()
		e := openEngine(t, log, stable, opts)
		var wg sync.WaitGroup
		var acked [workers]int64
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := workload.NewET1(scale, int64(round*workers+w))
				p := fmt.Sprintf("w%d/", w)
				for e.Stats().Checkpoints == 0 {
					txn := gen.Next()
					tx := e.Begin()
					for _, k := range txn.Keys() {
						if _, err := tx.Add(p+k, txn.Delta); err != nil {
							errs <- err
							return
						}
					}
					if _, err := tx.Add(p+"history/count", 1); err != nil {
						errs <- err
						return
					}
					if err := tx.Commit(); err != nil {
						errs <- err
						return
					}
					acked[w]++
					// Think time: a worker is often between transactions
					// when the other's commit triggers a checkpoint, and
					// begins its next one while that checkpoint runs.
					time.Sleep(100 * time.Microsecond)
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		log.crash()
		e2 := openEngine(t, log, stable, opts)
		if err := BankInvariant(e2, scale); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for w := 0; w < workers; w++ {
			if got := e2.Get(fmt.Sprintf("w%d/history/count", w)); got != acked[w] {
				t.Fatalf("round %d, worker %d: history/count = %d after recovery, want %d", round, w, got, acked[w])
			}
		}
	}
}
