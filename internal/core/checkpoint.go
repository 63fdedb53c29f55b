package core

import (
	"time"

	"github.com/rewind-db/rewind/internal/rlog"
)

// DefaultCheckpointBudget is the default per-freeze flush budget of the
// paced checkpoint, in cache lines (512 lines = 32 KiB per pause).
const DefaultCheckpointBudget = 512

// maxCheckpointChunks bounds the number of pre-flush freezes one checkpoint
// may take, so a writer that dirties lines faster than the budget drains
// them cannot spin the checkpoint forever — the stamp round then flushes
// whatever remains in one (larger) pause.
const maxCheckpointChunks = 256

// CheckpointStats reports how one checkpoint was paced.
type CheckpointStats struct {
	// Chunks is the number of freeze windows taken, including the final
	// stamp round (1 means the checkpoint behaved like the paper's
	// freeze-all).
	Chunks int
	// LinesFlushed is the total cache lines made durable.
	LinesFlushed int
	// Cleared is the number of finished transactions whose records were
	// removed.
	Cleared int
	// MaxPauseNs is the longest single freeze, wall clock: the worst stall
	// a committing transaction could have observed.
	MaxPauseNs int64
	// MaxPauseSimNs is the longest single freeze on the simulated device's
	// virtual clock — the deterministic counterpart the pause-gate test
	// asserts on.
	MaxPauseSimNs int64
	// TotalNs is the checkpoint's full wall-clock duration, clearing scans
	// included.
	TotalNs int64
}

// Checkpoint trims the log under the NoForce policy (§4.6, the paper's
// "cache-consistent" checkpoint) with the default pause budget. Under Force
// the log is already cleared at commit time, so Checkpoint is a no-op.
func (tm *TM) Checkpoint() { tm.CheckpointPaced(0) }

// CheckpointPaced is the incremental checkpoint. The paper's §4.6 protocol
// freezes every shard and flushes the whole cache in one stop-the-world
// pause; here the same durable outcome is reached in bounded steps:
//
//  1. pre-flush — while dirty lines exceed the budget, take a short freeze
//     (all shard mutexes), force every shard's pending Batch group, flush
//     at most budgetLines dirty lines, release. Forcing the logs first
//     keeps the write-ahead invariant: a cached user write is only ever
//     flushed in a window where its log record is already durable. The
//     freeze must cover all shards for exactly that reason — user data of
//     different shards shares cache lines, so flushing any line races with
//     every shard's pending group, not just one;
//  2. stamp round — one more freeze: a CHECKPOINT record is stamped into
//     each shard (before the residual flush — the other order could make
//     records appended during the flush look persistent), the remaining
//     dirty lines (at most ~budget, the pre-flush drained the rest) are
//     flushed, and every shard's finished list is taken;
//  3. clearing — each shard is then cleared independently with no locks
//     held, exactly as before: the records of the transactions taken are
//     removed, applying committed DELETE deallocations on the way.
//
// The pause any committing transaction can observe is one freeze: the
// budgeted line flush plus a group force — not the whole cache. budgetLines
// <= -1 disables pacing (one freeze-all pause, the paper's original
// protocol, kept for comparison); 0 means DefaultCheckpointBudget.
func (tm *TM) CheckpointPaced(budgetLines int) CheckpointStats {
	var cs CheckpointStats
	if tm.cfg.Policy == Force {
		return cs
	}
	if budgetLines == 0 {
		budgetLines = DefaultCheckpointBudget
	}
	start := time.Now()

	// freeze runs fn with every shard frozen and every log forced, flushes
	// up to limit dirty lines, and accounts the pause.
	freeze := func(limit int, fn func()) {
		t0, s0 := time.Now(), tm.mem.Stats().SimulatedNS
		for _, sh := range tm.shards {
			sh.mu.Lock()
		}
		for _, sh := range tm.shards {
			tm.forceLogShard(sh)
		}
		if fn != nil {
			fn()
		}
		cs.LinesFlushed += tm.mem.FlushDirtyLimit(limit)
		for _, sh := range tm.shards {
			sh.mu.Unlock()
		}
		cs.Chunks++
		if pause := time.Since(t0).Nanoseconds(); pause > cs.MaxPauseNs {
			cs.MaxPauseNs = pause
		}
		if sim := tm.mem.Stats().SimulatedNS - s0; sim > cs.MaxPauseSimNs {
			cs.MaxPauseSimNs = sim
		}
	}

	// Step 1: drain the dirty cache in budgeted freezes.
	if budgetLines > 0 {
		for cs.Chunks < maxCheckpointChunks && tm.mem.DirtyLineCount() > budgetLines {
			freeze(budgetLines, nil)
		}
	}

	// Step 2: the stamp round. Every record already in any shard got its
	// LSN before the stamp, so it compares below its shard's checkpoint
	// LSN; the finished lists are taken inside the freeze, and an entry joins
	// its list under the shard-mutex hold that appends its END (retire), so
	// a transaction is either taken with its END durably below the stamp or
	// left whole — records and entry — for the next checkpoint.
	var done []doneTxn
	ckptLSN := make([]uint64, len(tm.shards))
	freeze(-1, func() {
		if tm.cfg.Layers == OneLayer {
			for i, sh := range tm.shards {
				ckptLSN[i] = tm.lsn.Add(1)
				sh.log.AppendFields(rlog.Fields{LSN: ckptLSN[i], Txn: 0, Type: rlog.TypeCheckpoint}, false)
				tm.forceLogShard(sh)
			}
		} else {
			ckptLSN[0] = tm.lsn.Load()
		}
		for _, sh := range tm.shards {
			done = append(done, sh.finished...)
			sh.finished = sh.finished[:0]
		}
		tm.checkpoints.Add(1)
	})

	// Step 3: clear shard by shard, appends elsewhere unimpeded.
	if tm.cfg.Layers == TwoLayer {
		for _, d := range done {
			tm.clearFinishedChain(d.id, d.committed)
		}
	} else {
		doneSet := make(map[uint64]bool, len(done))
		for _, d := range done {
			doneSet[d.id] = d.committed
		}
		for i, sh := range tm.shards {
			lsn := ckptLSN[i]
			sh.log.ClearScan(false, func(r rlog.Record) rlog.ClearAction {
				if r.Txn() == 0 && r.Type() == rlog.TypeCheckpoint && r.LSN() < lsn {
					return rlog.RemoveFree // stale checkpoint markers
				}
				committed, finished := doneSet[r.Txn()]
				if !finished || r.LSN() > lsn {
					return rlog.Keep
				}
				if committed && r.Type() == rlog.TypeDelete {
					tm.a.Free(r.Target())
				}
				return rlog.RemoveFree
			})
		}
	}

	cs.Cleared = len(done)
	cs.TotalNs = time.Since(start).Nanoseconds()
	tm.mu.Lock()
	tm.lastCkpt = cs
	tm.mu.Unlock()
	return cs
}

// LastCheckpoint returns the pacing report of the most recent checkpoint
// (the zero value before the first one).
func (tm *TM) LastCheckpoint() CheckpointStats {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.lastCkpt
}
