package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/rlog"
)

// recover implements §4.5. The log itself has already been structurally
// recovered by rlog.Open / avl.Open. What remains is:
//
//	analysis — rebuild the (volatile) transaction table by scanning the
//	           surviving records of every shard, merge them into one global
//	           LSN order, and re-seed the LSN / transaction-ID counters;
//	redo     — NoForce only: repeat history by re-applying every surviving
//	           record (updates and CLRs) in LSN order, since cached user
//	           writes may have been lost;
//	undo     — roll back every loser: Algorithm 2's single backward scan
//	           (over the LSN-merged records) for one-layer logging,
//	           per-chain walks for two-layer;
//	finish   — persist the undo effects, write END records for all losers,
//	           apply committed transactions' deferred DELETEs, and clear
//	           every shard wholesale (the three-step swap of §4.5).
//
// Sharding changes only the shape of the scan, and — with
// Config.RecoveryWorkers — who performs it. Analysis and redo are
// per-shard-parallel: every transaction's records live in exactly one shard
// (tid % shards), so each shard's scan classifies a disjoint set of
// transactions and only the maxLSN/maxTid seeds and the table merge are
// shared (taken under a mutex). Each shard yields a sorted run; a k-way
// merge restores the total LSN order a single log would have had, which the
// undo phase walks backward exactly as Algorithm 2 prescribes. Redo applies
// per shard in shard-LSN order, with a serial conflict pass re-playing any
// word written by more than one shard in global LSN order (see redo). Every
// phase is idempotent, so recovery itself tolerates further crashes.
//
// RedoOnly collapses the plan to analysis + winners-only redo: records of
// unfinished transactions are discarded after analysis (their effects never
// reached the image — see publishRedoOnly's write ordering), redo runs under
// both policies, and the undo phase — the one pass that is serial however
// many workers the pool has — is skipped along with the losers' ENDs.
func (tm *TM) recover() *RecoveryStats {
	rs := &RecoveryStats{
		CrashDetected: tm.mem.Load64(tm.state+stDirty) != 0,
		Workers:       tm.recoveryWorkers(),
		ArenaSize:     tm.mem.Size(),
		ArenaSegments: len(tm.mem.Extents()) + 1,
	}
	redoOnly := tm.cfg.CommitMode == RedoOnly

	// analysis: runs[i] is shard i's surviving records sorted by LSN; recs
	// is their k-way merge, globally LSN-ascending (nil for two-layer,
	// whose records live in chains).
	t0, s0 := time.Now(), tm.mem.Stats().SimulatedNS
	recs, runs := tm.analysis(rs)
	rs.AnalysisNs = time.Since(t0).Nanoseconds()
	rs.AnalysisSimNs = tm.mem.Stats().SimulatedNS - s0

	if redoOnly {
		// Losers' published chains carry no undo information and their
		// effects never reached the image (NoForce data is cached; Force
		// applies data only after a durable END), so they are simply
		// dropped here and reclaimed by the wholesale clear below —
		// redoing them would corrupt. Winners-only redo replaces both the
		// redo and undo phases of the undo/redo modes.
		recs, runs = tm.filterWinners(runs)
	}

	if tm.cfg.Policy == NoForce || redoOnly {
		t1, s1 := time.Now(), tm.mem.Stats().SimulatedNS
		tm.redo(rs, recs, runs)
		rs.RedoNs = time.Since(t1).Nanoseconds()
		rs.RedoSimNs = tm.mem.Stats().SimulatedNS - s1
	}

	if !redoOnly {
		t2 := time.Now()
		if tm.cfg.Layers == TwoLayer {
			tm.undoChains(rs)
		} else {
			tm.undoScan(rs, recs)
		}
		rs.UndoNs = time.Since(t2).Nanoseconds()
	}

	t3 := time.Now()
	if tm.cfg.Policy == NoForce || redoOnly {
		// Make redone history (and, under UndoRedo, undo effects) durable
		// before the log is declared resolved. RedoOnly needs this under
		// Force too: its redo repeats history with cached stores.
		tm.mem.FlushAll()
	}

	// END records for every transaction at an unfinished state
	// (Algorithm 2's closing loop). Under Force, any undo writes still
	// deferred in a pending Batch group are made durable first: an END
	// must never outlive the undo effects it vouches for. RedoOnly losers
	// get no END at all — their chains are discarded wholesale moments
	// later, and a repeated crash just discards them again — which keeps
	// "rollback writes no log traffic" true through recovery as well.
	if tm.cfg.Policy == Force && !redoOnly {
		for _, sh := range tm.shards {
			sh.mu.Lock()
			tm.forceLogShard(sh)
			sh.mu.Unlock()
		}
		tm.mem.Fence()
	}
	for _, x := range tm.sortedTable() {
		if x.status == statusFinished {
			rs.Winners++
			continue
		}
		if !redoOnly {
			tm.appendTxn(x, rlog.Fields{Txn: x.id, Type: rlog.TypeEnd}, true)
		}
		x.status = statusFinished
		x.aborted = true
		rs.LosersAborted++
	}

	// Deferred deallocations of committed transactions that crashed
	// between commit and clearing (§4.3). Frees are idempotent, so
	// replaying them after repeated recovery crashes is safe.
	tm.applyFinishedDeletes(recs)

	// Clear everything: after recovery all transactions are complete.
	if tm.cfg.Layers == TwoLayer {
		tm.resetChains()
	} else {
		for _, sh := range tm.shards {
			sh.log.Reset(true)
		}
	}

	// Every transaction the log knew is resolved: the table has done its
	// job, and a live manager keeps none.
	tm.table = nil
	tm.mem.StoreNT64(tm.state+stDirty, 0)
	tm.mem.Fence()
	rs.FinishNs = time.Since(t3).Nanoseconds()
	return rs
}

// recoveryWorkers resolves Config.RecoveryWorkers: non-positive means one
// worker per CPU, and the pool never exceeds the shard count (a shard is
// the unit of recovery parallelism). The two-layer configuration has a
// single record index, so it always recovers with one worker.
func (tm *TM) recoveryWorkers() int {
	if tm.cfg.Layers == TwoLayer {
		return 1
	}
	w := tm.cfg.RecoveryWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n := len(tm.shards); w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runShards invokes fn(i) for every shard index using w workers with a
// static round-robin assignment (shard i goes to worker i%w). The static
// split keeps the work partition deterministic, which is what lets the
// recovery-scaling figure model a worker's makespan from the per-shard
// record counts.
func runShards(w, n int, fn func(int)) {
	if w <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				fn(i)
			}
		}(g)
	}
	wg.Wait()
}

// appendTxn appends a record on behalf of x under its shard's mutex (the
// recovery-path counterpart of the logging fast path).
func (tm *TM) appendTxn(x *Txn, f rlog.Fields, end bool) (flushed bool) {
	sh := tm.shardFor(x.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return tm.appendShard(sh, x, f, end)
}

// classify folds one record into a transaction table (§4.5's analysis
// rules): END, or any record with an END folded in → finished; ROLLBACK
// without END → mid-abort; otherwise running. It returns updated
// maxLSN/maxTid seeds.
func classify(table map[uint64]*Txn, r rlog.Record, maxLSN, maxTid uint64) (uint64, uint64) {
	if r.LSN() > maxLSN {
		maxLSN = r.LSN()
	}
	tid := r.Txn()
	if tid == 0 {
		return maxLSN, maxTid // pseudo-transaction (CHECKPOINT records)
	}
	if tid > maxTid {
		maxTid = tid
	}
	x, ok := table[tid]
	if !ok {
		x = &Txn{id: tid}
		table[tid] = x
	}
	switch {
	case r.Ends():
		x.status = statusFinished
	case r.Type() == rlog.TypeRollback:
		x.status = statusAborted
		x.aborted = true
	}
	return maxLSN, maxTid
}

// analysis scans the surviving records of every shard and rebuilds the
// transaction table (§4.5). Shards are scanned by the recovery worker pool:
// a transaction's records all live in its own shard, so each worker
// classifies a disjoint slice of the table and only the merge into the
// shared table and the cross-shard maxLSN/maxTid seeds are serialized. For
// one-layer logging it returns the per-shard sorted runs and their k-way
// LSN merge, which the later phases scan in place of the single log.
func (tm *TM) analysis(rs *RecoveryStats) ([]rlog.Record, [][]rlog.Record) {
	if tm.cfg.Layers == TwoLayer {
		var maxLSN, maxTid uint64
		for _, c := range tm.tree.Txns() {
			// Chains link newest→oldest; traverse and classify.
			for cur := c.Tail; cur != nvm.Null; {
				r := rlog.View(tm.mem, cur)
				rs.RecordsScanned++
				if r.Type() == rlog.TypeCLR {
					rs.CLRRecords++
				}
				maxLSN, maxTid = classify(tm.table, r, maxLSN, maxTid)
				cur = r.PrevTxn()
			}
			// The chain tail is authoritative for last.
			if x := tm.table[c.Txn]; x != nil {
				x.last = rlog.View(tm.mem, c.Tail).Ref()
			}
		}
		tm.seedCounters(maxLSN, maxTid, rs)
		return nil, nil
	}

	runs := make([][]rlog.Record, len(tm.shards))
	rs.ShardRecords = make([]int, len(tm.shards))
	var mu sync.Mutex
	var maxLSN, maxTid uint64
	runShards(rs.Workers, len(tm.shards), func(i int) {
		sh := tm.shards[i]
		local := map[uint64]*Txn{}
		var run []rlog.Record
		var lMaxLSN, lMaxTid uint64
		clrs := 0
		it := sh.log.Begin()
		for it.Next() {
			r := it.Record()
			if r.Type() == rlog.TypeCLR {
				clrs++
			}
			lMaxLSN, lMaxTid = classify(local, r, lMaxLSN, lMaxTid)
			run = append(run, r)
		}
		it.Close()
		// Records enter a shard in LSN order (the LSN is drawn and the
		// record appended under one shard-mutex hold), so this sort is a
		// cheap no-op pass — kept so the merge's precondition is explicit
		// rather than an implicit logging invariant.
		sort.Slice(run, func(a, b int) bool { return run[a].LSN() < run[b].LSN() })
		runs[i] = run
		rs.ShardRecords[i] = len(run)

		mu.Lock()
		for tid, x := range local {
			tm.table[tid] = x // tids are shard-disjoint: no entry collides
		}
		if lMaxLSN > maxLSN {
			maxLSN = lMaxLSN
		}
		if lMaxTid > maxTid {
			maxTid = lMaxTid
		}
		rs.RecordsScanned += len(run)
		rs.CLRRecords += clrs
		mu.Unlock()
	})
	tm.seedCounters(maxLSN, maxTid, rs)
	return mergeRuns(runs), runs
}

// filterWinners narrows the analysis output to records of finished
// transactions — the RedoOnly rule: a chain without a durable END belongs
// to a loser whose writes never reached the shared image, and is discarded
// rather than redone or compensated. Checkpoint markers (txn 0) carry no
// after-image and are dropped too. Runs are filtered in place and the
// merged list re-derived from them (the old merged list may alias a run's
// backing array, so it is not filtered independently).
func (tm *TM) filterWinners(runs [][]rlog.Record) ([]rlog.Record, [][]rlog.Record) {
	won := func(r rlog.Record) bool {
		x, ok := tm.table[r.Txn()]
		return ok && x.status == statusFinished
	}
	for i, run := range runs {
		keep := run[:0]
		for _, r := range run {
			if won(r) {
				keep = append(keep, r)
			}
		}
		runs[i] = keep
	}
	return mergeRuns(runs), runs
}

// mergeRuns k-way-merges per-shard LSN-sorted runs into one globally
// LSN-ascending slice — the record order a single unsharded log would have
// produced. LSNs are unique (one atomic counter), so the order is total.
func mergeRuns(runs [][]rlog.Record) []rlog.Record {
	total, nonEmpty, lastIdx := 0, 0, 0
	for i, run := range runs {
		total += len(run)
		if len(run) > 0 {
			nonEmpty++
			lastIdx = i
		}
	}
	if nonEmpty <= 1 {
		if nonEmpty == 0 {
			return nil
		}
		return runs[lastIdx]
	}
	out := make([]rlog.Record, 0, total)
	idx := make([]int, len(runs))
	for len(out) < total {
		best := -1
		var bestLSN uint64
		for i, run := range runs {
			if idx[i] >= len(run) {
				continue
			}
			if lsn := run[idx[i]].LSN(); best == -1 || lsn < bestLSN {
				best, bestLSN = i, lsn
			}
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
	return out
}

// seedCounters resumes the global LSN and transaction-id counters above
// everything the surviving records used.
func (tm *TM) seedCounters(maxLSN, maxTid uint64, rs *RecoveryStats) {
	tm.lsn.Store(maxLSN)
	tm.lastTxn.Store(maxTid)
	rs.MaxLSN = maxLSN
}

// redo repeats history (NoForce three-phase recovery): every surviving
// record's effect is re-applied in LSN order — updates write their new
// value, CLRs write their restored value. Span records redo word-wise:
// the record chains as one unit but its whole after-image is re-applied.
// Re-applying CLRs is what makes a crash during a previous rollback safe
// (§4.5: "the redo phase handles a crash during a previous rollback").
//
// With more than one worker, redo runs per shard: each worker replays its
// shards' runs in shard-LSN order, which is already the correct order for
// every word only one shard wrote. A word written by records of two or more
// shards (cross-shard cache lines are ordinary — unrelated transactions may
// update neighbouring structures) ends at whichever shard's store landed
// last, so a serial conflict pass re-plays exactly those words from the
// LSN-merged record list: the final value of every word is then the newest
// covering record's after-image — byte-identical to the sequential replay.
func (tm *TM) redo(rs *RecoveryStats, recs []rlog.Record, runs [][]rlog.Record) {
	if tm.cfg.Layers == TwoLayer {
		var all []rlog.Record
		for _, c := range tm.tree.Txns() {
			for cur := c.Tail; cur != nvm.Null; {
				r := rlog.View(tm.mem, cur)
				all = append(all, r)
				cur = r.PrevTxn()
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].LSN() < all[j].LSN() })
		for _, r := range all {
			if tm.redoRecord(r, nil, nil) {
				rs.Redone++
			}
		}
		return
	}
	if rs.Workers <= 1 || len(runs) <= 1 {
		for _, r := range recs {
			if tm.redoRecord(r, nil, nil) {
				rs.Redone++
			}
		}
		return
	}

	// Parallel per-shard replay, tracking each shard's touched words.
	touched := make([]map[uint64]struct{}, len(runs))
	redone := make([]int, len(runs))
	runShards(rs.Workers, len(runs), func(i int) {
		words := map[uint64]struct{}{}
		for _, r := range runs[i] {
			if tm.redoRecord(r, nil, func(a uint64) { words[a] = struct{}{} }) {
				redone[i]++
			}
		}
		touched[i] = words
	})
	for _, n := range redone {
		rs.Redone += n
	}

	// Conflict pass: words written by two or more shards replay serially in
	// global LSN order, restoring the single-log outcome.
	owner := map[uint64]int{}
	conflict := map[uint64]struct{}{}
	for i, words := range touched {
		for a := range words {
			if j, ok := owner[a]; ok && j != i {
				conflict[a] = struct{}{}
			} else {
				owner[a] = i
			}
		}
	}
	if len(conflict) == 0 {
		return
	}
	rs.RedoConflictWords = len(conflict)
	inConflict := func(a uint64) bool {
		_, ok := conflict[a]
		return ok
	}
	for _, r := range recs {
		tm.redoRecord(r, inConflict, nil)
	}
}

// redoRecord re-applies one record's after-image word by word — the single
// replay primitive every redo pass (sequential, per-shard parallel, and
// the serial conflict pass) shares, so their semantics cannot drift. A
// non-nil filter selects which words apply; a non-nil applied observes
// each word stored. It reports whether the record was a redoable type.
func (tm *TM) redoRecord(r rlog.Record, filter func(uint64) bool, applied func(uint64)) bool {
	switch r.Type() {
	case rlog.TypeUpdate, rlog.TypeCLR:
		for i, n := 0, r.Words(); i < n; i++ {
			a := r.TargetAt(i)
			if filter != nil && !filter(a) {
				continue
			}
			tm.mem.Store64(a, r.NewAt(i))
			if applied != nil {
				applied(a)
			}
		}
		return true
	}
	return false
}

// undoScan is Algorithm 2: a single backward pass over the LSN-merged
// records undoes every loser. CLRs encountered first (they are newest) set
// each transaction's resume point, so updates already compensated by a
// crashed rollback are skipped; under Force each CLR is re-applied — all
// of its words, for span CLRs — in case the crash fell between the CLR
// and its durable user write.
func (tm *TM) undoScan(rs *RecoveryStats, recs []rlog.Record) {
	undoMap := map[uint64]uint64{}
	restored := map[uint64]bool{}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		x, ok := tm.table[r.Txn()]
		if !ok || x.status == statusFinished {
			continue
		}
		if x.status == statusRunning {
			tm.appendTxn(x, rlog.Fields{Txn: x.id, Type: rlog.TypeRollback}, false)
			x.status = statusAborted
			x.aborted = true
		}
		switch r.Type() {
		case rlog.TypeCLR:
			if _, seen := undoMap[r.Txn()]; !seen {
				undoMap[r.Txn()] = r.UndoNext()
			}
			if tm.cfg.Policy == Force {
				tm.reapplyCLR(r, restored)
			}
		case rlog.TypeUpdate:
			if !r.Undoable() {
				break
			}
			resume, seen := undoMap[r.Txn()]
			if !seen || r.LSN() < resume {
				sh := tm.shardFor(x.id)
				sh.mu.Lock()
				tm.compensateLocked(sh, x, r)
				sh.mu.Unlock()
				rs.Undone++
			}
		}
	}
}

// reapplyCLR re-applies, under Force, the compensation a crashed recovery
// logged but may not have stored. The undo passes meet a loser's CLRs
// newest first, and the newest CLR of a word holds the value undo had
// reached: restored records the words already written, so an older CLR of
// the same word does not overwrite it.
func (tm *TM) reapplyCLR(r rlog.Record, restored map[uint64]bool) {
	for w, n := 0, r.Words(); w < n; w++ {
		if addr := r.TargetAt(w); !restored[addr] {
			restored[addr] = true
			tm.mem.StoreNT64(addr, r.NewAt(w))
		}
	}
}

// undoChains rolls back each two-layer loser through its AAVLT chain.
func (tm *TM) undoChains(rs *RecoveryStats) {
	for _, x := range tm.sortedTable() {
		if x.status == statusFinished {
			continue
		}
		if x.status == statusRunning {
			tm.appendTxn(x, rlog.Fields{Txn: x.id, Type: rlog.TypeRollback}, false)
			x.status = statusAborted
			x.aborted = true
		}
		_, tail, ok := tm.tree.Lookup(x.id)
		if !ok {
			continue
		}
		sh := tm.shardFor(x.id)
		resume := ^uint64(0)
		restored := map[uint64]bool{}
		for cur := tail; cur != nvm.Null; {
			r := rlog.View(tm.mem, cur)
			next := r.PrevTxn()
			switch r.Type() {
			case rlog.TypeCLR:
				if resume == ^uint64(0) {
					resume = r.UndoNext()
				}
				if tm.cfg.Policy == Force {
					tm.reapplyCLR(r, restored)
				}
			case rlog.TypeUpdate:
				if r.Undoable() && r.LSN() < resume {
					sh.mu.Lock()
					tm.compensateLocked(sh, x, r)
					sh.mu.Unlock()
					rs.Undone++
				}
			}
			cur = next
		}
	}
}

// applyFinishedDeletes performs the deferred deallocation carried by
// DELETE records of committed transactions (§4.3). Aborted transactions'
// DELETE records are ignored: the deletion logically never happened.
func (tm *TM) applyFinishedDeletes(recs []rlog.Record) {
	committed := func(tid uint64) bool {
		x, ok := tm.table[tid]
		return ok && x.status == statusFinished && !x.aborted
	}
	if tm.cfg.Layers == TwoLayer {
		for _, c := range tm.tree.Txns() {
			if !committed(c.Txn) {
				continue
			}
			for cur := c.Tail; cur != nvm.Null; {
				r := rlog.View(tm.mem, cur)
				if r.Type() == rlog.TypeDelete {
					tm.a.Free(r.Target())
				}
				cur = r.PrevTxn()
			}
		}
		return
	}
	for _, r := range recs {
		if r.Type() == rlog.TypeDelete && committed(r.Txn()) {
			tm.a.Free(r.Target())
		}
	}
}

// resetChains empties the tree and frees every record block it indexed.
// The tree lets go of the chains first: a crash part-way through the frees
// then leaks the rest, where freeing first would leave the tree pointing
// into freed, soon reused, blocks for the next recovery to walk.
func (tm *TM) resetChains() {
	chains := tm.tree.Txns()
	tm.tree.Reset()
	for _, c := range chains {
		for cur := c.Tail; cur != nvm.Null; {
			r := rlog.View(tm.mem, cur)
			next := r.PrevTxn()
			tm.a.Free(cur)
			cur = next
		}
	}
}

// sortedTable returns table entries in transaction-ID order so recovery is
// deterministic.
func (tm *TM) sortedTable() []*Txn {
	out := make([]*Txn, 0, len(tm.table))
	for _, x := range tm.table {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
