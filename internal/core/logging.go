package core

import (
	"github.com/rewind-db/rewind/internal/rlog"
)

// Begin starts a transaction and returns its handle (the runtime call
// generated at the top of a persistent_atomic block, Listing 2 line 2).
// Identifiers are assigned sequentially from an atomic counter, which also
// round-robins transactions over the log shards. The handle is the whole
// transaction: the manager registers it nowhere.
func (tm *TM) Begin() *Txn {
	return tm.beginID(tm.lastTxn.Add(1))
}

// BeginOn starts a transaction pinned to log shard shard%NumShards. Shard
// assignment is by id (shardFor), so pinning draws ids from the atomic
// counter until one lands on the wanted shard — at most NumShards-1 ids are
// burned, and every id is still unique, so recovery's id-based shard
// routing is untouched. Callers that serialize all writers of one datum
// onto one shard (the kv stripes) get a crash-consistency guarantee from
// the shard log's FIFO flush order: a transaction's END can only be durable
// if every earlier END on its shard is, so the set of recovered winners is
// always a dependency-closed prefix of that datum's history.
func (tm *TM) BeginOn(shard int) *Txn {
	n := len(tm.shards)
	want := uint64(shard % n)
	for {
		id := tm.lastTxn.Add(1)
		if id%uint64(n) == want {
			return tm.beginID(id)
		}
	}
}

// beginID starts a transaction under the given id. It is counted running
// on its shard before the dirty mark is consulted (Close relies on it).
func (tm *TM) beginID(id uint64) *Txn {
	x, _ := freeTxns.Get().(*Txn)
	if x == nil {
		x = new(Txn)
	}
	*x = Txn{tm: tm, sh: tm.shardFor(id), id: id}
	if tm.cfg.CommitMode == RedoOnly {
		x.buf = &redoBuf{writes: map[uint64]uint64{}}
	}
	x.sh.running.Add(1)
	tm.markDirty()
	tm.begun.Add(1)
	return x
}

// Write64 performs one recoverable update: it logs the write ahead of the
// data (WAL, §4.2) and then applies it according to the policy — durable
// non-temporal store under Force, cached store under NoForce. Under the
// Batch log the durable store is deferred until the record's group flush,
// mirroring §3.3's reordering of log calls above user writes.
//
// Under RedoOnly the write goes to the transaction's private buffer
// instead: no log record, no shard lock, no image mutation until Commit
// publishes the whole buffer.
func (x *Txn) Write64(addr, val uint64) error {
	if err := x.running(); err != nil {
		return err
	}
	if b := x.buf; b != nil {
		b.writes[addr] = val
		return nil
	}
	tm, sh := x.tm, x.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := tm.mem.Load64(addr)
	flushed := tm.appendShard(sh, x, rlog.Fields{
		Txn: x.id, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
		Addr: addr, Old: old, New: val,
	}, false)
	tm.applyShard(sh, addr, val, flushed)
	return nil
}

// WriteBytes performs a recoverable multi-word update. addr must be 8-byte
// aligned (ErrUnalignedWrite otherwise). The whole run of words is logged
// as a single span record — one log insert and, under Simple/Optimized,
// one flush + fence for the entire span, instead of one per word — and
// then applied word by word under the policy. A final partial word is
// read-modified-written: the bytes of p land at their offsets and the
// word's remaining bytes keep their current memory contents.
func (x *Txn) WriteBytes(addr uint64, p []byte) error {
	if err := x.running(); err != nil {
		return err
	}
	if addr%8 != 0 {
		return ErrUnalignedWrite
	}
	if len(p) == 0 {
		return nil
	}
	if b := x.buf; b != nil {
		// Buffered word loop; the tail read-modify-write consults the
		// buffer first so an earlier buffered write to the same word is
		// not clobbered by stale image bytes.
		var word [8]byte
		for i, n := 0, (len(p)+7)/8; i < n; i++ {
			w := addr + uint64(i)*8
			if c := copy(word[:], p[i*8:]); c < 8 {
				cur := b.load(x.tm.mem, w)
				for t := c; t < 8; t++ {
					word[t] = byte(cur >> (8 * uint(t)))
				}
			}
			b.writes[w] = le64(word[:])
		}
		return nil
	}
	tm, sh := x.tm, x.sh
	n := (len(p) + 7) / 8

	sh.mu.Lock()
	defer sh.mu.Unlock()
	oldS, newS := sh.spanImages(n)
	var word [8]byte
	for i := 0; i < n; i++ {
		w := addr + uint64(i)*8
		cur := tm.mem.Load64(w)
		oldS[i] = cur
		if c := copy(word[:], p[i*8:]); c < 8 {
			// Tail read-modify-write: preserve the word's surviving bytes.
			for b := c; b < 8; b++ {
				word[b] = byte(cur >> (8 * uint(b)))
			}
		}
		newS[i] = le64(word[:])
	}
	if n == 1 {
		flushed := tm.appendShard(sh, x, rlog.Fields{
			Txn: x.id, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
			Addr: addr, Old: oldS[0], New: newS[0],
		}, false)
		tm.applyShard(sh, addr, newS[0], flushed)
		return nil
	}
	flushed := tm.appendShard(sh, x, rlog.Fields{
		Txn: x.id, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
		Addr: addr, OldSpan: oldS, NewSpan: newS,
	}, false)
	tm.applySpan(sh, addr, newS, flushed)
	return nil
}

// Log writes a WAL record without applying the update, for callers that
// issue the data store themselves (the paper's explicit tm->log API,
// Listing 2). It is only valid for Simple and Optimized logs: under Batch
// the caller cannot know when the record becomes durable, so the paired
// Write64 must be used instead.
func (x *Txn) Log(addr, old, val uint64) error {
	if x.tm.cfg.CommitMode == RedoOnly {
		return ErrLogRedoOnly
	}
	if x.tm.cfg.LogKind == rlog.Batch {
		return ErrLogWithBatch
	}
	if err := x.running(); err != nil {
		return err
	}
	sh := x.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	x.tm.appendShard(sh, x, rlog.Fields{
		Txn: x.id, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
		Addr: addr, Old: old, New: val,
	}, false)
	return nil
}

// Free registers a deferred deallocation (§4.3): a DELETE record joins
// the transaction, and the block is actually freed only after the
// transaction commits — at commit-time clearing under Force, at the next
// checkpoint under NoForce, or during recovery if a crash intervenes. If
// the transaction rolls back, the block stays allocated.
func (x *Txn) Free(addr uint64) error {
	if err := x.running(); err != nil {
		return err
	}
	if b := x.buf; b != nil {
		b.deletes = append(b.deletes, addr)
		return nil
	}
	sh := x.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	x.tm.appendShard(sh, x, rlog.Fields{
		Txn: x.id, Type: rlog.TypeDelete, Addr: addr,
	}, false)
	return nil
}

// Read64 loads a word. Reads need no logging; they are served directly
// from (possibly cached) NVM.
func (tm *TM) Read64(addr uint64) uint64 { return tm.mem.Load64(addr) }

// Read64 loads a word as this transaction sees it: under RedoOnly its own
// buffered write wins over the shared image (read-your-writes), under
// UndoRedo it is a plain image load (in-place writes are already there).
func (x *Txn) Read64(addr uint64) uint64 {
	if b := x.buf; b != nil {
		return b.load(x.tm.mem, addr)
	}
	return x.tm.mem.Load64(addr)
}

// ReadBytes reads n bytes at addr as this transaction sees them,
// overlaying any buffered writes on the shared image word-wise.
func (x *Txn) ReadBytes(addr uint64, n int) []byte {
	p := x.tm.ReadBytes(addr, n)
	b := x.buf
	if b == nil || len(b.writes) == 0 {
		return p
	}
	for w := addr &^ 7; w < addr+uint64(n); w += 8 {
		v, ok := b.writes[w]
		if !ok {
			continue
		}
		for i := 0; i < 8; i++ {
			if off := int64(w) + int64(i) - int64(addr); off >= 0 && off < int64(n) {
				p[off] = byte(v >> (8 * uint(i)))
			}
		}
	}
	return p
}

// appendShard builds a record with a fresh global LSN in the shard's log
// (or a block of its own under the AAVLT in the two-layer configuration,
// chained to the transaction's previous record). It reports whether the log
// guarantees every record so far is durable (used to release Batch-deferred
// writes). Callers hold sh.mu.
func (tm *TM) appendShard(sh *logShard, x *Txn, f rlog.Fields, end bool) (flushed bool) {
	f.LSN = tm.lsn.Add(1)
	sh.appends.Add(1)
	if tm.cfg.Layers == TwoLayer {
		// The record's back-chain pointer is set off-line, before the
		// record is published in the index.
		f.UndoNext = x.last.LSN()
		f.PrevTxn = x.last.Addr
		rec := rlog.Alloc(tm.a, f)
		sh.logBytes.Add(int64(rec.Size()))
		tm.tree.InsertRecord(x.id, rec.Addr)
		x.last = rlog.Ref{Addr: rec.Addr, Hdr: f.Header()}
		return true
	}
	x.last, flushed = sh.log.AppendFields(f, end)
	if flushed && tm.cfg.LogKind == rlog.Batch {
		sh.flushes.Add(1)
	}
	return flushed
}

// appendEnd ends a committing transaction in its shard log: its END is
// folded into its newest record while that record still waits for its
// Batch group flush (rlog.Log.FoldEnd), so a commit whose last write is
// still unflushed costs no record and no cell of its own. Otherwise — a
// transaction that logged nothing, a record a flush already covered (under
// Force always: the commit forces the log first), the two-layer chain, the
// unbatched kinds — an END record joins the log. Callers hold sh.mu.
func (tm *TM) appendEnd(sh *logShard, x *Txn) {
	if tm.cfg.Layers == OneLayer && sh.log.FoldEnd(x.last) {
		return
	}
	tm.appendShard(sh, x, rlog.Fields{Txn: x.id, Type: rlog.TypeEnd}, false)
}

// applyShard applies a logged user update according to policy and log
// kind. Callers hold sh.mu.
func (tm *TM) applyShard(sh *logShard, addr, val uint64, flushed bool) {
	if tm.cfg.Policy == Force {
		if tm.cfg.LogKind == rlog.Batch && !flushed {
			// Keep the update visible (cached) but defer its durable
			// store until the group flush, so it cannot overtake its log
			// record (§3.3).
			tm.mem.Store64(addr, val)
			sh.pending = append(sh.pending, pendingWrite{addr, val})
			return
		}
		tm.drainPending(sh)
		tm.mem.StoreNT64(addr, val)
		return
	}
	// NoForce: cached store; durability comes from checkpoints. The
	// checkpoint orders a log group-flush before the cache flush, so a
	// cached user write can never become durable ahead of its record.
	tm.mem.Store64(addr, val)
}

// applySpan applies a span's worth of logged user updates, word-wise,
// under the same policy rules as applyShard. Callers hold sh.mu.
func (tm *TM) applySpan(sh *logShard, addr uint64, vals []uint64, flushed bool) {
	for i, v := range vals {
		tm.applyShard(sh, addr+uint64(i)*8, v, flushed)
	}
}

// drainPending re-issues deferred user writes durably after their records'
// group flush. Callers hold sh.mu.
func (tm *TM) drainPending(sh *logShard) {
	if len(sh.pending) == 0 {
		return
	}
	for _, w := range sh.pending {
		tm.mem.StoreNT64(w.addr, w.val)
	}
	sh.pending = sh.pending[:0]
}

// forceLogShard makes every record appended to the shard durable (Batch
// group flush; no-op otherwise), releases deferred writes, and advances the
// shard's durable mark over every commit published so far — whoever forces
// (a round leader, a checkpoint freeze, a per-commit flush) retires the
// tickets waiting on it. Callers hold sh.mu.
func (tm *TM) forceLogShard(sh *logShard) {
	if tm.cfg.LogKind == rlog.Batch {
		sh.log.ForceFlush()
		sh.flushes.Add(1)
		if tm.cfg.Policy == Force {
			tm.drainPending(sh)
		} else {
			sh.pending = sh.pending[:0]
		}
	}
	sh.durable.Store(sh.endSeq.Load())
}

// ReadBytes reads n bytes at addr.
func (tm *TM) ReadBytes(addr uint64, n int) []byte {
	p := make([]byte, n)
	tm.mem.Read(addr, p)
	return p
}

func le64(p []byte) uint64 {
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}
