package core

import "distlog/internal/faultpoint"

// Crash points of the client's Section 3.1.2 protocol steps. Each
// marks a place where the paper's recovery argument must hold if the
// client dies: the crashaudit harness (internal/crashaudit) kills the
// client at every one of them in turn and audits the next incarnation.
// See DESIGN.md, "Crash-point map", for the step each interrupts.
//
// Callbacks armed on these points run on the client's own goroutines,
// in some cases with internal locks held; they must not call back into
// the ReplicatedLog (closing the client's transport endpoint is the
// intended crash model).
const (
	// FPInitCopied interrupts initialization after the doubtful tail
	// has been streamed to one write-set server with CopyLog but before
	// that server's InstallCopies: staged copies exist, none committed.
	FPInitCopied = "client.init.copied"
	// FPInitInstalled interrupts initialization after InstallCopies
	// committed on one write-set server but before the next server was
	// reached: the multi-server install is torn.
	FPInitInstalled = "client.init.installed"
	// FPForceBeforeFlush interrupts a force round after its target LSN
	// is fixed but before any record is flushed.
	FPForceBeforeFlush = "client.force.before-flush"
	// FPForceAfterFlush interrupts a force round after the stream (and
	// trailing ForceLog) went out but before any acknowledgment wait.
	FPForceAfterFlush = "client.force.after-flush"
	// FPForceWaiterDone interrupts a force round between per-server
	// acknowledgment completions: some servers have acked the target,
	// the round has not released the outstanding buffer.
	FPForceWaiterDone = "client.force.waiter-done"
	// FPFailoverBeforeSwap interrupts failover after the spare has been
	// caught up but before it replaces the failed server in the write
	// set.
	FPFailoverBeforeSwap = "client.failover.before-swap"
	// FPCursorMidStream interrupts the cursor read path as each reply
	// chunk is accepted — a client dying partway through a streamed
	// recovery scan. It fires on every streaming read: scans, point
	// reads (ReadRecord is a one-record cursor step) and the doubtful-
	// window read of initialization, before any CopyLog is sent.
	FPCursorMidStream = "core.cursor.mid-stream"
	// FPStreamAfterSend interrupts the asynchronous write pipeline just
	// after a plain (unforced) record frame left for a server: the
	// client dies with records streamed but never forced — exactly the
	// partially-written tail the δ re-copy of recovery must cover. It
	// fires from both async senders (the streamer goroutine and the
	// opportunistic FlushBatch flush).
	FPStreamAfterSend = "client.stream.after-send"
	// FPMigrateBeforeAnchor interrupts a write-set migration after the
	// fresh epoch was obtained but before any new server was anchored
	// with NewInterval: the migration is invisible, the old write set
	// still holds everything acknowledged.
	FPMigrateBeforeAnchor = "client.migrate.before-anchor"
	// FPMigrateAfterAnchor interrupts a write-set migration after every
	// new server was anchored and the write set swapped, but before the
	// closing force drained the outstanding buffer onto the new set:
	// acknowledged records live only on the old servers, unacknowledged
	// ones only in the client buffer — recovery must lose neither.
	FPMigrateAfterAnchor = "client.migrate.after-anchor"
	// FPCommitVector interrupts Stream.WriteCommit between reading the
	// sibling streams' high-LSN dependency vector and appending the
	// commit record that carries it: the client dies holding a vector
	// that names records which may themselves never become stable —
	// recovery must treat the missing commit as unwritten and the
	// vector must never order anything after a record that is gone.
	FPCommitVector = "client.stream.commit-vector"
	// FPMergeBeforeApply interrupts the dependency-ordered merge of a
	// multi-stream scan as each record is yielded but before the caller
	// applies it — a client dying partway through a merged recovery
	// replay. Recovery of the recovery must reproduce the same
	// dependency-consistent prefix.
	FPMergeBeforeApply = "recman.merge.before-apply"
)

var _ = faultpoint.Register(
	FPInitCopied,
	FPInitInstalled,
	FPForceBeforeFlush,
	FPForceAfterFlush,
	FPForceWaiterDone,
	FPFailoverBeforeSwap,
	FPCursorMidStream,
	FPStreamAfterSend,
	FPMigrateBeforeAnchor,
	FPMigrateAfterAnchor,
	FPCommitVector,
	FPMergeBeforeApply,
)
