package core

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/rlog"
)

// Commit ends a transaction successfully (§4.3): Publish, then WaitDurable
// on the ticket. When it returns the transaction survives any crash.
func (x *Txn) Commit() error {
	if _, err := x.Publish(); err != nil {
		return err
	}
	x.WaitDurable()
	return nil
}

// WaitDurable waits on the transaction's own ticket, charging the wait to
// its observed span.
func (x *Txn) WaitDurable() { x.tm.WaitDurable(x.ticket, x.span) }

// Publish is the first half of commit: it fixes the transaction's place in
// its shard's commit order and makes its writes visible, and returns the
// Ticket that WaitDurable turns into a durability guarantee. Under Force
// the sequence is: make all the transaction's updates durable, fence, write
// the END record, force it, then clear the transaction's log records
// (applying any deferred DELETE deallocations on the way, END removed last)
// — the ticket is already durable. Under NoForce only the END is written,
// and under Batch it is folded into the transaction's last record when it
// can be (appendEnd); checkpoints clear the log later, and without group
// commit the END is forced here, so again the ticket is born durable. Only
// under GroupCommit does the ticket name work still to do.
//
// Only the transaction's own shard is locked — reached directly through
// the handle — so commits on different shards proceed in parallel.
//
// The transaction is finished for the manager from here on, whether or not
// anybody ever waits on the ticket: it is counted committed, leaves the
// shard's running count and joins the shard's finished list (retire), all
// under the shard-mutex hold that put its END record in the log. That is
// the invariant checkpoints rely on when they clear finished transactions
// — the stamp round forces every shard under its mutex before it takes the
// lists, so a transaction it finds there has its END durably below the
// stamp — and it is why an abandoned ticket (a connection that died
// mid-burst) leaks nothing.
func (x *Txn) Publish() (Ticket, error) {
	if err := x.running(); err != nil {
		return Ticket{}, err
	}
	x.status = statusFinished
	if x.buf != nil {
		return x.publishRedoOnly(false), nil
	}
	tm, sh := x.tm, x.sh
	pc := tm.startPhases(x.span)
	contended := sh.lock()
	pc.mark(obs.PhaseLatchWait)
	if tm.cfg.Policy == Force {
		// User updates were issued as durable stores (or deferred to
		// group flushes); force the tail of the log and fence so
		// everything is in NVM before END marks the transaction durable.
		tm.forceLogShard(sh)
		tm.mem.Fence()
		pc.mark(obs.PhaseFlushFence)
	}
	// The END joins the log — folded into the transaction's last record
	// while that waits for its group flush (appendEnd) — without forcing a
	// flush of its own; durability comes from the explicit force below
	// (per-commit flush) or from a group-commit round flush, which
	// WaitDurable finds or leads.
	// The publish hook fires strictly AFTER the END is in the shard log and
	// strictly BEFORE any flush: in-place writes were visible all along,
	// but latches that gate dependent writers (the kv write path) must only
	// open once this transaction's commit order on its shard is fixed —
	// that is what makes shard-pinned pipelining (BeginOn) crash-consistent
	// — and must never stay held across a fence.
	x.ticket = Ticket{Shard: sh.idx, Seq: sh.endSeq.Add(1)}
	tm.appendEnd(sh, x)
	pc.mark(obs.PhaseLogAppend)
	x.firePublish()
	pc.mark(obs.PhasePublish)
	if !tm.cfg.GroupCommit {
		tm.forceLogShard(sh)
		pc.mark(obs.PhaseFlushFence)
	}
	x.retireCommit(contended)
	sh.mu.Unlock()

	if tm.cfg.Policy == Force {
		tm.clearFinished(x, true)
	}
	return x.ticket, nil
}

// retireCommit does the manager's bookkeeping for a commit whose END has
// just joined its shard log. Callers hold sh.mu.
func (x *Txn) retireCommit(contended bool) {
	sh := x.sh
	sh.commits.Add(1)
	if !contended {
		sh.uncontended.Add(1)
	}
	x.tm.committed.Add(1)
	x.retire()
}

// retire takes a transaction whose END has just joined its shard log off
// the shard's running count and, where a checkpoint will have to clear its
// records (NoForce; Force clears at commit and never checkpoints), onto the
// shard's finished list. Callers hold sh.mu — the same hold that appended
// the END, see Publish.
func (x *Txn) retire() {
	sh := x.sh
	if x.tm.cfg.Policy == NoForce {
		sh.finished = append(sh.finished, doneTxn{x.id, !x.aborted})
	}
	sh.running.Add(-1)
}

// Durable reports whether a log force already covers the ticket's END
// record; the zero Ticket is.
func (tm *TM) Durable(t Ticket) bool {
	return t.Seq == 0 || tm.shards[t.Shard].durable.Load() >= t.Seq
}

// WaitDurable blocks until a log force covers the ticket's END record
// (§3.3 generalized across transactions). It returns at once when the
// shard's durable mark already has — the common case for all but one
// ticket of a pipelined burst, and for every ticket outside group commit.
//
// Otherwise the caller joins the shard's open round, or opens one and
// becomes its leader: it waits up to GroupCommitWindow for company when
// there is a sign of any (or until GroupCommitMax waiters have joined),
// then acquires the shard, closes the round, and issues ONE ForceFlush —
// flush + fence + persisted-index store — on behalf of every END in the
// log by then, waited on or not. Followers just wait for the leader's done
// signal.
//
// Correctness of the shared flush: a ticket exists only once its END was
// appended under the shard mutex, a follower can only join a round that is
// still open, and the leader closes the round only after it holds the
// shard mutex. So by the time the leader holds that mutex, every member's
// END is in the log and the flush covers it. Closing after the mutex
// acquisition (not before) also means waiters arriving while the leader
// waits for a busy shard still join this round instead of leading size-1
// rounds of their own. Waiters that arrive after the close open the next
// round; if the flush in progress turns out to have covered them, the
// leader of that next round finds the mark caught up and issues no flush.
//
// span, when non-nil, receives the wait's phases: a follower's whole wait
// is gather (the leader pays the flush on its behalf); a leader's window +
// shard acquisition is gather and the shared force is flush+fence. A
// ticket found durable records no phase.
func (tm *TM) WaitDurable(t Ticket, span *obs.Span) {
	if tm.Durable(t) {
		return
	}
	sh := tm.shards[t.Shard]
	pc := tm.startPhases(span)
	sh.gcMu.Lock()
	if sh.durable.Load() >= t.Seq {
		sh.gcMu.Unlock()
		return
	}
	if r := sh.gcRound; r != nil {
		// Join the open round as a follower.
		r.n++
		if r.n >= tm.cfg.GroupCommitMax && !r.fullSent {
			r.fullSent = true
			close(r.full)
		}
		sh.gcMu.Unlock()
		<-r.done
		pc.mark(obs.PhaseGather)
		return
	}
	// Lead a new round.
	r := &gcRound{n: 1, full: make(chan struct{}), done: make(chan struct{})}
	sh.gcRound = r
	sh.gcMu.Unlock()

	if tm.cfg.GroupCommitWindow > 0 && tm.cfg.GroupCommitMax > 1 {
		// Yield once so waiters that are already runnable (e.g. connection
		// handlers with requests sitting in their sockets) get to reach the
		// round, then decide whether gathering is worth a window of
		// latency. The window exists for waiters that bring ONE commit each
		// to find each other, so it is slept only when both hold:
		//
		//   - the round covers no more commits than it has waiters. More
		//     commits than waiters means somebody is waiting on a pipelined
		//     burst: the fence is already amortized over it, and that
		//     caller — blocked right here — has nothing to add until it
		//     gets its answers;
		//   - there is a sign of company: a waiter already joined, a
		//     transaction is mid-flight on the shard, or the previous round
		//     had more than one waiter (momentum — depth-1 connections are
		//     between requests exactly when the leader looks).
		//
		// Otherwise flush now: neither a lone, unpipelined commit nor a
		// pipelined burst pays the window.
		runtime.Gosched()
		durable := sh.durable.Load() // before endSeq: the mark only trails it
		sh.gcMu.Lock()
		wait := sh.endSeq.Load()-durable <= uint64(r.n) &&
			(r.n > 1 || sh.gcMomentum || sh.running.Load() > 0)
		sh.gcMu.Unlock()
		if wait {
			timer := time.NewTimer(tm.cfg.GroupCommitWindow)
			select {
			case <-r.full:
				timer.Stop()
			case <-timer.C:
			}
		}
	}

	sh.mu.Lock()
	sh.gcMu.Lock()
	sh.gcRound = nil // close the round: later waiters start the next one
	sh.gcMomentum = r.n > 1
	sh.gcMu.Unlock()
	pc.mark(obs.PhaseGather)
	if covered := int64(sh.endSeq.Load() - sh.durable.Load()); covered > 0 {
		tm.forceLogShard(sh)
		pc.mark(obs.PhaseFlushFence)
		sh.gcRounds.Add(1)
		if covered > 1 {
			sh.gcGrouped.Add(covered)
		}
	}
	sh.mu.Unlock()
	close(r.done)
}

// publishRedoOnly publishes a RedoOnly transaction: the private buffer is
// coalesced into maximal contiguous word runs — each logged as ONE
// redo-only span record (after-images only) — followed by the deferred
// DELETEs and the END, all appended under a single shard-mutex hold so
// checkpoint freezes see the chain complete or absent.
//
// Write ordering is policy-specific and is what makes the absence of undo
// information safe. Under Force the records AND the END are made durable
// first, then the data is applied with durable stores: a crash before the
// END leaves a loser whose image was never touched, a crash after it a
// winner whose redo phase re-applies the after-images (which is why
// RedoOnly recovery runs redo even under Force). Under NoForce the data
// stores are cached — lost on crash unless the log survived, same as
// UndoRedo — and the END rides the usual group flush or a group-commit
// round. Either way the buffer publish (and the OnPublish hook) happens
// before anybody blocks on durability. keepLog skips Force's commit-time
// clearing and forces the END here, for the recovery experiments.
func (x *Txn) publishRedoOnly(keepLog bool) Ticket {
	tm, sh, b := x.tm, x.sh, x.buf
	gc := tm.cfg.GroupCommit && !keepLog

	addrs := make([]uint64, 0, len(b.writes))
	for a := range b.writes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	pc := tm.startPhases(x.span)
	contended := sh.lock()
	pc.mark(obs.PhaseLatchWait)
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[j-1]+8 {
			j++
		}
		vals := make([]uint64, j-i)
		for k := i; k < j; k++ {
			vals[k-i] = b.writes[addrs[k]]
		}
		tm.appendShard(sh, x, rlog.Fields{
			Txn: x.id, Type: rlog.TypeUpdate, Addr: addrs[i], NewSpan: vals,
		}, false)
		i = j
	}
	for _, d := range b.deletes {
		tm.appendShard(sh, x, rlog.Fields{Txn: x.id, Type: rlog.TypeDelete, Addr: d}, false)
	}
	x.ticket = Ticket{Shard: sh.idx, Seq: sh.endSeq.Add(1)}
	if tm.cfg.Policy == Force {
		pc.mark(obs.PhaseLogAppend) // the span + DELETE records above
		tm.appendEnd(sh, x)
		tm.forceLogShard(sh)
		tm.mem.Fence()
		pc.mark(obs.PhaseFlushFence) // END and its covering force
		for _, a := range addrs {
			tm.mem.StoreNT64(a, b.writes[a])
		}
		x.firePublish()
		tm.mem.Fence()
		pc.mark(obs.PhasePublish)
	} else {
		tm.appendEnd(sh, x)
		if !gc {
			tm.forceLogShard(sh) // the commit's own group flush
		}
		pc.mark(obs.PhaseLogAppend) // every record incl. END (+ group flush)
		for _, a := range addrs {
			tm.mem.Store64(a, b.writes[a])
		}
		x.firePublish()
		pc.mark(obs.PhasePublish)
	}
	x.retireCommit(contended)
	sh.mu.Unlock()
	x.buf = nil

	if tm.cfg.Policy == Force && !keepLog {
		tm.clearFinished(x, true)
	}
	return x.ticket
}

// CommitKeepLog commits without the force policy's commit-time clearing.
// It exists for the recovery experiments (Figure 4 right): the paper
// constructs the state of a system that crashed after transactions logged
// their END records but before their records were cleared, so recovery has
// to skip them while aborting the one unfinished transaction.
func (x *Txn) CommitKeepLog() error {
	if err := x.running(); err != nil {
		return err
	}
	x.status = statusFinished
	if x.buf != nil {
		x.publishRedoOnly(true)
		return nil
	}
	tm, sh := x.tm, x.sh
	contended := sh.lock()
	if tm.cfg.Policy == Force {
		tm.forceLogShard(sh)
		tm.mem.Fence()
	}
	// Same ordering as Publish: END in the log, then the hook, then the
	// per-commit flush (no group rounds on this path).
	tm.appendEnd(sh, x)
	x.firePublish()
	tm.forceLogShard(sh)
	x.retireCommit(contended)
	sh.mu.Unlock()
	return nil
}

// Rollback aborts a transaction (§4.4): its records are scanned newest to
// oldest, each undoable update gets a compensation log record (CLR) and its
// old value written back — a span record gets one span CLR restoring the
// whole run — and an END record marks the completed rollback. The rollback
// is restartable: a crash mid-way leaves CLRs from which recovery resumes
// at the right record.
func (x *Txn) Rollback() error {
	if err := x.running(); err != nil {
		return err
	}
	tm, sh := x.tm, x.sh
	x.status, x.aborted = statusFinished, true
	x.onPublish = nil
	if x.buf != nil {
		// RedoOnly: nothing reached the log or the shared image, so the
		// abort is a buffer discard — no ROLLBACK record, no CLRs, no log
		// traffic at all, and with zero records logged nothing for recovery
		// or a checkpoint to resolve.
		x.buf = nil
		tm.rolledBack.Add(1)
		sh.running.Add(-1)
		return nil
	}

	sh.mu.Lock()
	tm.appendShard(sh, x, rlog.Fields{Txn: x.id, Type: rlog.TypeRollback}, false)
	sh.mu.Unlock()

	if tm.cfg.Layers == TwoLayer {
		tm.rollbackChain(sh, x)
	} else {
		tm.rollbackScan(sh, x)
	}

	sh.mu.Lock()
	if tm.cfg.Policy == Force {
		// The undo writes must be durable before END can declare the
		// rollback complete — under Batch some may still be deferred in
		// the pending group (the corner case §4.4 guards with CLR redo,
		// which group-deferral widens to every CLR in the group).
		tm.forceLogShard(sh)
		tm.mem.Fence()
	}
	tm.appendShard(sh, x, rlog.Fields{Txn: x.id, Type: rlog.TypeEnd}, true)
	tm.rolledBack.Add(1)
	x.retire()
	sh.mu.Unlock()

	if tm.cfg.Policy == Force {
		tm.clearFinished(x, false)
	}
	return nil
}

// rollbackScan undoes one transaction by scanning its whole shard backwards
// (one-layer: there is no per-transaction chain, so every intervening
// record of other transactions on the shard is inspected and skipped — the
// "skip records" whose cost Figures 3 and 4 quantify). Records of other
// shards are never touched: a transaction's records all live in its shard.
func (tm *TM) rollbackScan(sh *logShard, x *Txn) {
	it := sh.log.End()
	resume := ^uint64(0)
	for it.Prev() {
		r := it.Record()
		if r.Txn() != x.id {
			continue
		}
		switch r.Type() {
		case rlog.TypeCLR:
			if resume == ^uint64(0) {
				resume = r.UndoNext()
			}
		case rlog.TypeUpdate:
			if r.Undoable() && r.LSN() < resume {
				tm.compensate(sh, x, r)
			}
		}
	}
	it.Close()
}

// rollbackChain undoes one transaction by walking its AAVLT record chain
// (two-layer: no unrelated records are touched).
func (tm *TM) rollbackChain(sh *logShard, x *Txn) {
	_, tail, ok := tm.tree.Lookup(x.id)
	if !ok {
		return
	}
	resume := ^uint64(0)
	for cur := tail; cur != nvm.Null; {
		r := rlog.View(tm.mem, cur)
		switch r.Type() {
		case rlog.TypeCLR:
			if resume == ^uint64(0) {
				resume = r.UndoNext()
			}
		case rlog.TypeUpdate:
			if r.Undoable() && r.LSN() < resume {
				tm.compensate(sh, x, r)
			}
		}
		cur = r.PrevTxn()
	}
}

// compensate writes a CLR for r and applies the undo, taking the shard
// mutex. See compensateLocked.
func (tm *TM) compensate(sh *logShard, x *Txn, r rlog.Record) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tm.compensateLocked(sh, x, r)
}

// compensateLocked writes a CLR for r and applies the undo. The CLR's
// UndoNext records the compensated LSN: during a later backward pass,
// records at or above it are known to be undone already. A span record is
// compensated by one span CLR whose images are the original's, swapped —
// the undo stays a single log insert however wide the span. Under Force
// the undo itself is written durably (§4.4: "under the force policy the
// undos should be made persistent as well"). Callers hold sh.mu.
func (tm *TM) compensateLocked(sh *logShard, x *Txn, r rlog.Record) {
	if n := r.Words(); n > 1 {
		oldS, newS := sh.spanImages(n)
		for i := 0; i < n; i++ {
			prev, err := r.OldAt(i)
			if err != nil {
				// Undo is gated on FlagUndoable, which redo-only records
				// never carry; reaching one here means the log is corrupt.
				panic(fmt.Sprintf("core: undo of %v: %v", r, err))
			}
			oldS[i], newS[i] = r.NewAt(i), prev
		}
		flushed := tm.appendShard(sh, x, rlog.Fields{
			Txn: x.id, Type: rlog.TypeCLR,
			Addr: r.Target(), OldSpan: oldS, NewSpan: newS,
			UndoNext: r.LSN(),
		}, false)
		tm.applySpan(sh, r.Target(), newS, flushed)
		return
	}
	flushed := tm.appendShard(sh, x, rlog.Fields{
		Txn: x.id, Type: rlog.TypeCLR,
		Addr: r.Target(), Old: r.New(), New: r.Old(),
		UndoNext: r.LSN(),
	}, false)
	tm.applyShard(sh, r.Target(), r.Old(), flushed)
}

// clearFinished removes a finished transaction's records from its shard
// (Force policy's clear-at-commit, §4.3/§4.6). commit selects whether
// DELETE records perform their deferred deallocation (aborted transactions
// never free). The forward direction makes the END record the last one
// removed, so a crash mid-clear leaves the transaction still marked
// finished and the next attempt repeats identically.
func (tm *TM) clearFinished(x *Txn, commit bool) {
	if tm.cfg.Layers == TwoLayer {
		tm.clearFinishedChain(x.id, commit)
		return
	}
	tm.shardFor(x.id).log.ClearScan(false, func(r rlog.Record) rlog.ClearAction {
		if r.Txn() != x.id {
			return rlog.Keep
		}
		if commit && r.Type() == rlog.TypeDelete {
			tm.a.Free(r.Target())
		}
		return rlog.RemoveFree
	})
}

// clearFinishedChain clears a finished transaction in the two-layer
// configuration: deferred DELETEs are applied first (idempotent frees, so
// a crash-replay is safe), then the index entry is removed atomically, and
// only then are the record blocks freed — a crash can leak blocks but
// never leave the index pointing at freed memory.
func (tm *TM) clearFinishedChain(tid uint64, commit bool) {
	_, tail, ok := tm.tree.Lookup(tid)
	if !ok {
		return
	}
	var records []uint64
	for cur := tail; cur != nvm.Null; {
		r := rlog.View(tm.mem, cur)
		records = append(records, cur)
		if commit && r.Type() == rlog.TypeDelete {
			tm.a.Free(r.Target())
		}
		cur = r.PrevTxn()
	}
	tm.tree.RemoveTxn(tid)
	for _, rec := range records {
		tm.a.Free(rec)
	}
}
