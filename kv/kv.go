// Package kv builds a concurrency-safe durable map on the recoverable
// B+-tree — the storage engine behind the rewindd network service.
//
// The keyspace is striped over N independent B+-trees, so operations on
// keys in different stripes run fully in parallel: disjoint trees mean
// disjoint NVM nodes (the caller-side concurrency control §4.7 asks for),
// and independent core.Txn handles mean commits contend only on the log —
// where the sharded log and the group-commit rounds take over. A stripe's
// trees are published through a single durable side table in one
// application root slot, so any number of stripes fit the root-slot budget.
//
// Within a stripe, writes are fine-grained (DESIGN.md §8): a value
// overwrite or a non-structural insert/delete latches only the ONE leaf it
// mutates (plus the header count word for structural changes), takes the
// stripe's writer lock shared, and releases every latch at commit publish
// time — before the commit's durability wait — so concurrent writers to
// one stripe overlap both their tree work and their fence bills. Only
// splits, merges, and root changes take the stripe-exclusive latch. Crash
// consistency across these pipelined same-stripe commits comes from shard
// pinning: every single-stripe transaction logs on shard stripe%LogShards,
// so the shard log's FIFO flush order guarantees recovery keeps a
// dependency-closed prefix of the stripe's commit order.
//
// Values are variable-length byte strings up to Config.MaxValue, each in a
// fixed-size slot of a tree leaf. The record rule (DESIGN.md §8): every
// write of a record — here and in the tree's shifts, splits, merges and
// compaction moves — stores and logs [length word | payload, zero-filled to
// the next word] in one WriteBytes span and nothing past it, so a PUT's log
// and flush bill follows the value, not MaxValue. What a slot holds behind
// that prefix is unspecified — zero, or the tail of an older, longer value
// — and is never read: every read clamps to the length word. Undo and
// recovery are untouched by this, because a span's old image is exactly the
// words the write stored over: rolling back a short overwrite of a long
// value restores the overwritten prefix, and the rest of the long value was
// never touched.
//
// Durability: every mutation runs in its own REWIND transaction, in two
// steps. The Publish* calls execute it and publish its commit — END record
// in the stripe's log shard, writes visible, latches released — and return
// a rewind.Ticket; WaitDurable(ticket) returns once a log flush covers it.
// Put/Delete/Batch/CompareAndSwap are the two back to back, so one that
// returned survives any crash; a caller with several mutations in flight
// (the server's connection loop) publishes them all and waits afterwards,
// and they share one flush. Only overwrites of existing keys come back
// not yet durable: a mutation that changes a stripe's record count or
// shape (insert, delete, single-stripe batch) is waited for before its
// Publish* call returns, and its ticket is durable already. Batch applies
// all its operations inside ONE transaction: all-or-none, however many
// stripes it spans.
//
// Reads are latch-free (DESIGN.md §6): each stripe carries a seqlock-style
// counter — packed as version<<32 | active-writer-count, sound under any
// number of concurrent writers — that writers hold "open" around the tree
// mutation, and Get/Scan traverse optimistically: snapshot the counter,
// walk the tree through btree's validated read path, re-check the counter,
// retry on interference, and fall back to the stripe-exclusive latch after
// readAttempts (8) failed attempts. Reads issue no log records and no
// flushes; they never queue behind a commit flush, a group-commit gather
// window, or a checkpoint freeze.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/btree"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
)

// kvMagic tags the side table ("\0\0KVDNWR" in the high six bytes, low 16
// bits left clear for the packed stripe count).
const kvMagic = 0x31564b444e570000

// Side-table layout: [magic|stripes, valueSize, tree headers...].
const (
	tblMagic = 0
	tblVSize = 8
	tblTrees = 16
)

// Config shapes the store.
type Config struct {
	// Stripes is the number of independent key stripes (default 8). A key
	// belongs to stripe key % Stripes, so low-bit-diverse keyspaces
	// spread evenly. Fixed at creation; Attach validates it.
	Stripes int
	// MaxValue is the largest value size in bytes (default 512). Fixed at
	// creation.
	MaxValue int
	// RootSlot is the application root slot publishing the side table
	// (default rewind.AppRootFirst).
	RootSlot int
	// ExclusiveReads routes Get and Scan through the stripe latch, the
	// pre-seqlock behaviour: reads serialize against reads and stall behind
	// in-flight commits. It is the reference path the read-path gate
	// (TestReadPathSpeedup, the "readpath" figure) compares the latch-free
	// reads against, and nothing else sets it. Volatile — not part of the
	// durable shape.
	ExclusiveReads bool
	// SerialWrites routes every write through the stripe-exclusive latch
	// held across the whole tree mutation AND the commit wait — the
	// pre-fine-grained behaviour, one commit per stripe at a time. It is
	// the reference path the write-path gate (TestWritePathScaling, the
	// "writepath" figure) compares the fine-grained writes against, and
	// nothing else sets it. Volatile — not part of the durable shape.
	SerialWrites bool
	// Obs, when non-nil, records kv-level latch-wait time into the
	// commit-pipeline phase histograms and lets the span-taking write
	// calls (PutSpan, DeleteSpan, the Publish* family) attribute their
	// phase timings. Normally the same *obs.Obs as rewind.Options.Obs so the
	// whole stack shares one registry. Volatile — not part of the durable
	// shape; nil costs one pointer test per write.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Stripes <= 0 {
		c.Stripes = 8
	}
	if c.MaxValue <= 0 {
		c.MaxValue = 512
	}
	if c.RootSlot == 0 {
		c.RootSlot = rewind.AppRootFirst
	}
	return c
}

// valueSize is the tree slot size for a MaxValue: one length word plus the
// word-rounded payload.
func (c Config) valueSize() int { return 8 + (c.MaxValue+7)&^7 }

// treeConfig is the shape of every stripe's tree: length-prefixed records
// (the record rule in the package comment) in valueSize-byte slots.
func (c Config) treeConfig() btree.Config {
	return btree.Config{ValueSize: c.valueSize(), LenPrefix: true}
}

// Errors.
var (
	// ErrValueTooLarge is returned by Put when the value exceeds MaxValue.
	ErrValueTooLarge = errors.New("kv: value exceeds MaxValue")
	// ErrNotFound marks the side table's absence in Attach.
	ErrNotFound = errors.New("kv: no store published in root slot")
)

// readAttempts is how many optimistic attempts a Get or a Scan makes before
// falling back to the latch. The fallback bounds reader latency under a
// write storm; see DESIGN.md §6.
const readAttempts = 8

// latchBuckets sizes each stripe's leaf-latch table. 64 buckets comfortably
// out-number any plausible concurrent writer count, so false bucket sharing
// is rare; collisions are only ever contention, never incorrectness.
const latchBuckets = 64

// writerMask isolates the active-writer count in the packed seqlock word.
const writerMask = (1 << 32) - 1

// stripe is one tree plus its concurrency state.
//
//   - wmu shared: fine-grained leaf-path writers — internal tree structure
//     may not change while any of them is inside. wmu exclusive:
//     structural mutations (splits/merges/root moves), multi-stripe
//     transactions, reader fallback, invariant checks.
//   - latches: per-leaf (and header-count) latch table for the leaf path.
//   - seq is the seqlock word, packed version<<32 | active-writers. A
//     plain odd/even parity bit is NOT sound once two writers overlap
//     (the second bump would flip the counter back to "even" mid-write);
//     the packed form keeps the word "open" while ANY writer is inside
//     and bumps the version as each one leaves, so an optimistic reader's
//     full-word compare catches both an active overlap and a completed
//     writer that passed entirely between its two loads.
//   - shard is the pinned log shard (stripe index % LogShards): all
//     single-stripe commits of this stripe log there, making recovery's
//     winner set a prefix of the stripe's commit order (rewind.BeginOn).
//   - lastSeq is the ticket Seq of the stripe's newest published
//     single-stripe commit (tree writes visible, latches released, maybe
//     not yet durable), stored by the publish hook — which runs under the
//     pinned shard's mutex, so in ticket order, and while the committer
//     still holds wmu. Multi-stripe transactions — whose ENDs land on one
//     arbitrary shard rather than the stripe's pinned one — wait for it to
//     be durable before reading, restoring the cross-shard dependency
//     barrier that shard pinning provides for free within a stripe.
type stripe struct {
	wmu     sync.RWMutex
	seq     atomic.Uint64
	tree    *btree.Tree
	latches *btree.LatchTable
	shard   int
	lastSeq atomic.Uint64
}

// lastPublished is the ticket covering every commit the stripe has
// published.
func (sp *stripe) lastPublished() rewind.Ticket {
	return rewind.Ticket{Shard: sp.shard, Seq: sp.lastSeq.Load()}
}

// enterWrite opens the stripe's write window: active-writer count +1.
func (sp *stripe) enterWrite() { sp.seq.Add(1) }

// exitWrite closes it: count -1, version +1 — a single add of 2^32-1.
func (sp *stripe) exitWrite() { sp.seq.Add(writerMask) }

// Store is a striped durable map over a rewind.Store.
type Store struct {
	st      *rewind.Store
	mem     *nvm.Memory
	cfg     Config
	obs     *obs.Obs
	stripes []*stripe

	gets, puts, dels, scans, batches atomic.Int64
	readRetries, readFallbacks       atomic.Int64
	fastPath, latchWaits, fallbacks  atomic.Int64

	txnBegins, txnCommits, txnRollbacks, txnConflicts atomic.Int64
	casAttempts, casApplied                           atomic.Int64

	compactions, compactMoved, compactReleased atomic.Int64

	// recs recycles PublishPut's record images (*[]byte); scratch recycles
	// Scan's working lists (*scanScratch).
	recs, scratch sync.Pool
}

// optimisticReadHook, when non-nil, runs between an optimistic traversal
// and its seqlock validation. Tests use it to deterministically interleave
// a "writer" and force the retry path; it is nil in production.
var optimisticReadHook func()

// publishHook, when non-nil, runs inside every write's commit-publish
// callback — after the transaction's END record joined its shard log and
// its latches are about to release, before the commit's durability wait.
// Tests use it to prove latch-hold spans exclude the commit wait; it is
// nil in production.
var publishHook func()

// Create builds a fresh store: one tree per stripe, published through a
// durable side table in cfg.RootSlot. A crash before the final root-slot
// store leaks the half-built table (the allocator's documented failure
// mode) and a re-Create starts over.
func Create(st *rewind.Store, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Stripes >= 1<<16 {
		return nil, fmt.Errorf("kv: %d stripes exceed the side table's limit", cfg.Stripes)
	}
	// The record length field is the full leading word of the documented
	// "[length word | payload]" layout, so MaxValue is bounded only by what
	// the arena can physically hold: one tree leaf must fit a quarter of
	// the arena — at its growth cap, since a growable arena extends itself
	// before the first insert could exhaust it.
	if leaf := cfg.treeConfig().LeafSize(); leaf > st.Mem().MaxSize()/4 {
		return nil, fmt.Errorf("kv: MaxValue %d needs %d-byte leaves; the %d-byte arena cannot hold them",
			cfg.MaxValue, leaf, st.Mem().MaxSize())
	}
	mem := st.Mem()
	tblSize := tblTrees + cfg.Stripes*8
	tbl := st.Alloc(tblSize)
	s := &Store{st: st, mem: mem, cfg: cfg, obs: cfg.Obs}
	for i := 0; i < cfg.Stripes; i++ {
		t, err := btree.NewAt(st, cfg.treeConfig())
		if err != nil {
			return nil, err
		}
		mem.Store64(tbl+tblTrees+uint64(i)*8, t.Header())
		s.stripes = append(s.stripes, s.newStripe(i, t))
	}
	mem.Store64(tbl+tblMagic, kvMagic|uint64(cfg.Stripes))
	mem.Store64(tbl+tblVSize, uint64(cfg.valueSize()))
	mem.FlushRange(tbl, tblSize)
	mem.Fence()
	st.SetRoot(cfg.RootSlot, tbl) // atomic durable publish
	return s, nil
}

func (s *Store) newStripe(i int, t *btree.Tree) *stripe {
	return &stripe{
		tree:    t,
		latches: btree.NewLatchTable(latchBuckets),
		shard:   i % s.st.NumShards(),
	}
}

// Attach reopens the store published in cfg.RootSlot, validating that the
// configured shape matches the stored one.
func Attach(st *rewind.Store, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	tbl := st.Root(cfg.RootSlot)
	if tbl == 0 {
		return nil, ErrNotFound
	}
	mem := st.Mem()
	tag := mem.Load64(tbl + tblMagic)
	if tag&^0xffff != kvMagic {
		return nil, fmt.Errorf("kv: root slot %d holds no kv side table", cfg.RootSlot)
	}
	stripes := int(tag & 0xffff)
	if stripes != cfg.Stripes {
		return nil, fmt.Errorf("kv: store has %d stripes, config wants %d", stripes, cfg.Stripes)
	}
	if vs := int(mem.Load64(tbl + tblVSize)); vs != cfg.valueSize() {
		return nil, fmt.Errorf("kv: store has %d-byte records, config wants %d", vs, cfg.valueSize())
	}
	s := &Store{st: st, mem: mem, cfg: cfg, obs: cfg.Obs}
	for i := 0; i < stripes; i++ {
		hdr := mem.Load64(tbl + tblTrees + uint64(i)*8)
		t, err := btree.AttachAt(st, cfg.treeConfig(), hdr)
		if err != nil {
			return nil, err
		}
		s.stripes = append(s.stripes, s.newStripe(i, t))
	}
	return s, nil
}

// Open attaches to an existing store or creates a fresh one — the
// open-or-boot call rewindd makes after a restart of unknown provenance.
func Open(st *rewind.Store, cfg Config) (*Store, error) {
	s, err := Attach(st, cfg)
	if errors.Is(err, ErrNotFound) {
		return Create(st, cfg)
	}
	return s, err
}

// Rewind exposes the underlying store (stats, checkpointing).
func (s *Store) Rewind() *rewind.Store { return s.st }

// Obs exposes the observability state the store records into (nil when
// Config.Obs was nil).
func (s *Store) Obs() *obs.Obs { return s.obs }

// latchStart opens a latch-wait measurement; latchDone closes it,
// recording the elapsed wall time into the latch_wait phase histogram
// and span's phase totals. The device clock never advances inside a
// latch acquisition, so the simulated side is recorded as zero. With
// observability off both calls are one pointer test.
func (s *Store) latchStart() time.Time {
	if s.obs == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Store) latchDone(start time.Time, span *obs.Span) {
	if s.obs == nil {
		return
	}
	s.obs.PhaseNs(span, obs.PhaseLatchWait, time.Since(start).Nanoseconds(), 0)
}

// Config returns the configuration (with defaults resolved).
func (s *Store) Config() Config { return s.cfg }

func (s *Store) stripeIndex(key uint64) int {
	return int(key % uint64(len(s.stripes)))
}

func (s *Store) stripeOf(key uint64) *stripe {
	return s.stripes[s.stripeIndex(key)]
}

// encode builds the tree record for a value into buf (grown if too small):
// the 8-byte little-endian length word, then the payload, zero-filled to the
// next word boundary and no further — 8+⌈len(v)⌉₈ bytes, which is all the
// tree writes and logs. What the slot holds past them is unspecified.
func (s *Store) encode(buf, v []byte) []byte {
	n := 8 + (len(v)+7)&^7
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint64(buf, uint64(len(v)))
	clear(buf[8+copy(buf[8:], v):])
	return buf
}

// pooledRecord is encode into a recycled buffer, for the one-record write
// paths; the caller returns it with s.recs.Put once the tree write is done
// (no Writer keeps the slice).
func (s *Store) pooledRecord(v []byte) *[]byte {
	bp, _ := s.recs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = s.encode(*bp, v)
	return bp
}

// update runs fn inside one transaction with the given stripes latched
// EXCLUSIVE, wrapping the tree mutation in their seqlock write windows —
// the coarse path, used by multi-stripe Batch and by everything when
// Config.SerialWrites is set. The windows close at commit publish; the
// exclusive latches stay held through the commit wait, which for a
// multi-stripe transaction is load-bearing: its END lands on one arbitrary
// shard, so nothing that depends on its writes may be admitted until it is
// durable (the per-stripe prefix guarantee does not cover it).
//
// Symmetrically, fn must not read any stripe state until every commit the
// stripe has published is durable: those ENDs live on the stripe's pinned
// shard, and a crash could keep this transaction while dropping them.
// Waiting on the stripe's last ticket is the cross-shard half of the
// dependency barrier (DESIGN.md §8) — and since nobody else may be waiting
// on those tickets yet (a connection that pipelined PUTs and then sent this
// very batch), the wait leads the flush itself if it has to.
//
// Closing the seqlock before the commit flush means a concurrent reader
// may return a value up to one commit latency before the writer's own ack
// — the early-lock-release trade documented in DESIGN.md §6. The image it
// reads is never torn: the window covers every tree write of the
// transaction.
func (s *Store) update(stripes []int, span *obs.Span, fn func(tx *rewind.Tx) error) error {
	lw := s.latchStart()
	for _, i := range stripes {
		s.stripes[i].wmu.Lock()
	}
	s.latchDone(lw, span)
	defer func() {
		for _, i := range stripes {
			s.stripes[i].wmu.Unlock()
		}
	}()
	for _, i := range stripes {
		s.st.WaitDurable(s.stripes[i].lastPublished(), span)
	}
	for _, i := range stripes {
		s.stripes[i].enterWrite()
	}
	u := s.holdLatches(holdWindows, nil)
	u.stripes = stripes
	// On the error path the windows must outlive the rollback that Atomic
	// runs inside itself; the deferred release also covers a panic
	// unwinding through Atomic's own rollback (crash-injection panics
	// abandon the store, but the counters still end even).
	defer u.drop()
	return s.st.Atomic(func(tx *rewind.Tx) error {
		tx.Observe(span)
		if err := fn(tx); err != nil {
			return err
		}
		// Mutation done: close when the writes are visible in shared memory
		// and the END record has fixed the commit order — before the
		// commit's durability wait, so readers validating against the
		// window never spin out a group-commit gather.
		tx.OnPublish(u)
		return nil
	})
}

// updatePinned runs fn inside one transaction pinned to sp's log shard,
// with sp latched exclusive only until commit publish — the fine-grained
// protocol's structural tier (splits/merges/root changes, and single-
// stripe batches) — and returns the commit's ticket, durable already: like
// every commit that changes a stripe's record count, these are waited for
// here rather than pipelined (commitLeafPath says why). Unlike update, the
// latch does not span that wait: the pinned shard's FIFO flush order
// already guarantees that any later same-stripe transaction — necessarily
// logged behind this one — can only survive a crash if this one does, so
// dependent writers are admitted as soon as the END record is in the log.
func (s *Store) updatePinned(sp *stripe, span *obs.Span, fn func(tx *rewind.Tx) error) (rewind.Ticket, error) {
	lw := s.latchStart()
	sp.wmu.Lock()
	s.latchDone(lw, span)
	u := s.holdLatches(holdStripe, sp)
	sp.enterWrite()
	defer u.drop()
	tk, err := s.st.PublishOn(sp.shard, func(tx *rewind.Tx) error {
		tx.Observe(span)
		if err := fn(tx); err != nil {
			return err
		}
		tx.OnPublish(u)
		return nil
	})
	s.st.TM().WaitPaced(tk, span) // shape-changing: not pipelined (see commitLeafPath)
	return tk, err
}

// commitLeafPath publishes a single-leaf mutation on the fine-grained fast
// path and returns its ticket. On entry the caller holds sp.wmu shared and
// the leaf's latch; fn performs the mutation and, when delta != 0,
// commitLeafPath brackets the tree's record-count update with the
// header-count latch (hierarchy order: leaf, then header; a bucket
// collision means the leaf latch already covers the header and the second
// acquisition is skipped). Every latch — leaf, header, wmu reader —
// releases at commit publish, after the END record joined the stripe's
// pinned shard log and the writes are visible, so the latch-hold span
// never contains a flush or fence and concurrent same-stripe writers share
// group rounds.
//
// What the CALLER may pipeline is narrower: only an in-place overwrite
// (delta == 0) comes back published-but-not-durable. An insert or a delete
// is waited for here, after the latches are gone, and its ticket is
// durable on return — so a connection has at most one of them in flight,
// as before tickets existed, while any number of overwrites ride one
// flush. The wait is paced (core.TM.WaitPaced: the round sleeps its
// window whatever the count). The reason is measured, not structural: a
// 2x16 closed loop of inserts and deletes otherwise runs as fast as two
// CPUs hand work to each other, ten times faster and ±30 % from run to
// run, which no throughput gate can hold (DESIGN.md §4 "What pipelines";
// ROADMAP.md has the numbers to beat).
func (s *Store) commitLeafPath(sp *stripe, leaf uint64, delta int, span *obs.Span, fn func(tx *rewind.Tx) error) (rewind.Ticket, error) {
	t := sp.tree
	u := s.holdLatches(holdLeaf, sp)
	u.leaf = leaf
	sp.enterWrite()
	defer u.drop()
	tk, err := s.st.PublishOn(sp.shard, func(tx *rewind.Tx) error {
		tx.Observe(span)
		if err := fn(tx); err != nil {
			return err
		}
		if delta != 0 {
			cnt := t.CountAddr()
			if !sp.latches.SameBucket(leaf, cnt) {
				if sp.latches.Lock(cnt) {
					s.latchWaits.Add(1)
				}
				u.hdr = true
			}
			if err := t.AddLen(tx, delta); err != nil {
				return err
			}
		}
		tx.OnPublish(u)
		return nil
	})
	if delta != 0 {
		s.st.TM().WaitPaced(tk, span)
	}
	return tk, err
}

// heldLatches is one write's release state: what its transaction's publish
// hook opens (Published — at publish, never across a flush), and what the
// writer's deferred release opens instead when the transaction does not
// publish (an error, a rollback, a panic). The three write paths share it,
// and kv recycles it (heldPool), so a commit's hook costs no closure and
// no captured variable.
type heldLatches struct {
	s    *Store
	sp   *stripe // a single-stripe write's stripe: its ticket becomes lastSeq
	kind holdKind
	leaf uint64 // holdLeaf: the latched leaf
	hdr  bool   // holdLeaf: the header-count latch was taken as well
	// holdWindows: the stripes whose windows close at publish; their
	// exclusive latches stay held through the commit wait (update).
	stripes []int
	done    bool
}

type holdKind uint8

const (
	holdWindows holdKind = iota // update: the stripes' write windows
	holdStripe                  // updatePinned: window, wmu exclusive
	holdLeaf                    // commitLeafPath: window, leaf (+ header) latch, wmu shared
)

// heldPool recycles heldLatches values, zeroed, for every store: a pool
// that is a Store field keeps the store, and its device, reachable for up
// to two collections after its last use (core's freeTxns says more).
var heldPool sync.Pool

// holdLatches takes a release state from the pool.
func (s *Store) holdLatches(kind holdKind, sp *stripe) *heldLatches {
	u, _ := heldPool.Get().(*heldLatches)
	if u == nil {
		u = new(heldLatches)
	}
	*u = heldLatches{s: s, sp: sp, kind: kind}
	return u
}

// drop opens whatever publish did not and returns u to the pool: the
// writer's deferred call, after which the transaction (finished or
// abandoned) no longer reaches u.
func (u *heldLatches) drop() {
	u.open()
	*u = heldLatches{}
	heldPool.Put(u)
}

// Published is the publish hook (core.Publisher): record the stripe's
// newest ticket while the latches that order it are still held, then open
// them.
func (u *heldLatches) Published(tx *rewind.Tx) {
	if u.sp != nil {
		u.sp.lastSeq.Store(tx.Ticket().Seq)
	}
	if publishHook != nil {
		publishHook()
	}
	u.open()
}

// open releases the write's latches and closes its windows, once.
func (u *heldLatches) open() {
	if u.done {
		return
	}
	u.done = true
	switch sp := u.sp; u.kind {
	case holdWindows:
		for _, i := range u.stripes {
			u.s.stripes[i].exitWrite()
		}
	case holdStripe:
		sp.exitWrite()
		sp.wmu.Unlock()
	case holdLeaf:
		sp.exitWrite()
		if u.hdr {
			sp.latches.Unlock(sp.tree.CountAddr())
		}
		sp.latches.Unlock(u.leaf)
		sp.wmu.RUnlock()
	}
}

// readValue copies a record's payload out of the arena: length word first,
// then only the bytes actually used — not the full ValueSize buffer the
// latched btree.Lookup allocates. On the optimistic path the length word
// may be torn garbage; it is clamped to the record's physical payload so
// the copy stays in bounds, and the caller's seqlock validation rejects
// the result if anything raced.
func (s *Store) readValue(addr uint64) []byte {
	n := s.mem.Load64(addr)
	if n > uint64(s.cfg.MaxValue) {
		n = uint64(s.cfg.MaxValue)
	}
	v := make([]byte, n)
	s.mem.Read(addr+8, v)
	return v
}

// readValueAt copies out a window [off, off+max) of a record's payload,
// clamped to the (possibly torn — see readValue) stored length. It returns
// the chunk and the record's total length.
func (s *Store) readValueAt(addr, off uint64, max int) ([]byte, uint64) {
	n := s.mem.Load64(addr)
	if n > uint64(s.cfg.MaxValue) {
		n = uint64(s.cfg.MaxValue)
	}
	if off >= n {
		return nil, n
	}
	want := n - off
	if uint64(max) < want {
		want = uint64(max)
	}
	// The device reads whole words from aligned addresses; start at the
	// word containing off and drop the leading slack. The record payload is
	// word-padded, so the widened window stays inside the allocation.
	head := off & 7
	buf := make([]byte, head+want)
	s.mem.Read(addr+8+(off-head), buf)
	return buf[head:], n
}

// GetAt returns up to max bytes of key's value starting at byte offset off,
// plus the value's total length and a consistency token. Two GetAt calls
// returning the SAME token observed the same committed value image: the
// token is the stripe's seqlock word validated around the copy, so a client
// assembling a large value from chunks over several round trips restarts
// whenever the token changes and never splices two different values
// together. Like Get, it is latch-free with a stripe-latch fallback.
func (s *Store) GetAt(key, off uint64, max int) (chunk []byte, total, token uint64, ok bool) {
	s.gets.Add(1)
	sp := s.stripeOf(key)
	token = s.readStripe(sp, func(uint64) bool {
		chunk, total = nil, 0
		var addr uint64
		if addr, ok = sp.tree.SeekRecord(key); ok {
			chunk, total = s.readValueAt(addr, off, max)
		}
		return true
	})
	return chunk, total, token, ok
}

// Get returns the value stored under key. It is latch-free: optimistic
// seqlock attempts first, the stripe-exclusive latch only after readAttempts
// failed validations (a persistent write storm on this exact stripe).
func (s *Store) Get(key uint64) (v []byte, ok bool) {
	s.gets.Add(1)
	sp := s.stripeOf(key)
	s.readStripe(sp, func(uint64) bool {
		v = nil
		var addr uint64
		if addr, ok = sp.tree.SeekRecord(key); ok {
			v = s.readValue(addr)
		}
		return true
	})
	return v, ok
}

// readStripe runs read — one traversal of sp's tree through the validated
// read path — until a run is known to have seen a stable stripe, and
// returns the seqlock word that run saw. Up to readAttempts runs are
// optimistic: snapshot the word, skip the run while writers are inside,
// run, and accept only if the word has not moved (read may give up early by
// returning false, having polled the word it is handed). After that, or at
// once under Config.ExclusiveReads, read runs under the stripe-exclusive
// latch, where no write window is open (writers hold wmu shared through
// theirs), so the word is stable and still a sound consistency token. read
// must start from scratch on every run: a discarded run's results are
// garbage.
func (s *Store) readStripe(sp *stripe, read func(seq uint64) bool) uint64 {
	if !s.cfg.ExclusiveReads {
		for attempt := 0; attempt < readAttempts; attempt++ {
			if seq, ok := optimistic(sp, read); ok {
				return seq
			}
			s.readRetries.Add(1)
		}
		s.readFallbacks.Add(1)
	}
	sp.wmu.Lock()
	defer sp.wmu.Unlock()
	seq := sp.seq.Load()
	read(seq)
	return seq
}

// optimistic is one optimistic run of read over sp: snapshot the seqlock
// word, skip the run (yielding) while writers are inside, run, and report
// whether the word is unchanged — the run saw a stable stripe — along with
// the word.
func optimistic(sp *stripe, read func(seq uint64) bool) (uint64, bool) {
	seq := sp.seq.Load()
	if seq&writerMask != 0 { // writers mid-mutation: snapshot can't validate
		runtime.Gosched()
		return seq, false
	}
	ok := read(seq)
	if optimisticReadHook != nil {
		optimisticReadHook()
	}
	return seq, ok && sp.seq.Load() == seq
}

// Put durably stores value under key, replacing any prior value. When Put
// returns, the write has been committed and flushed (shared-round flushed
// under group commit): it survives any subsequent crash.
func (s *Store) Put(key uint64, value []byte) error { return s.PutSpan(key, value, nil) }

// PutSpan is Put with an observability span attached: the commit records
// its pipeline phase timings into span (and the shared histograms). A nil
// span is exactly Put.
func (s *Store) PutSpan(key uint64, value []byte, span *obs.Span) error {
	t, err := s.PublishPut(key, value, span)
	s.st.WaitDurable(t, span)
	return err
}

// WaitDurable blocks until the published mutation t names is durable (see
// rewind.Store.WaitDurable). The zero ticket — what the Publish* calls
// return for a mutation that changed nothing or committed synchronously —
// is durable already.
func (s *Store) WaitDurable(t rewind.Ticket, span *obs.Span) { s.st.WaitDurable(t, span) }

// PublishPut is Put up to commit publish: on return the value is visible
// to every reader and ordered in its stripe's history, and survives a crash
// once WaitDurable(ticket) has returned. Only an overwrite returns ahead of
// its flush; a Put that inserts the key has been waited for.
func (s *Store) PublishPut(key uint64, value []byte, span *obs.Span) (rewind.Ticket, error) {
	if len(value) > s.cfg.MaxValue {
		return rewind.Ticket{}, ErrValueTooLarge
	}
	s.puts.Add(1)
	bp := s.pooledRecord(value)
	defer s.recs.Put(bp)
	rec := *bp
	idx := s.stripeIndex(key)
	sp := s.stripes[idx]
	if s.cfg.SerialWrites {
		return rewind.Ticket{}, s.update([]int{idx}, span, func(tx *rewind.Tx) error {
			_, err := sp.tree.Insert(tx, key, rec)
			return err
		})
	}
	t := sp.tree
	lw := s.latchStart()
	sp.wmu.RLock()
	leaf := t.SeekLeafNode(key)
	if sp.latches.Lock(leaf) {
		s.latchWaits.Add(1)
	}
	s.latchDone(lw, span)
	// Under the shared wmu which leaf owns key is fixed, and under the leaf
	// latch its contents are too, so the routing decision below stays valid
	// through the mutation.
	pos, eq := t.LeafFind(leaf, key)
	switch {
	case eq:
		// Non-structural overwrite: the fast path — one span write into the
		// existing record, no key moves, no count change.
		s.fastPath.Add(1)
		return s.commitLeafPath(sp, leaf, 0, span, func(tx *rewind.Tx) error {
			return t.OverwriteInLeaf(tx, leaf, pos, rec)
		})
	case t.LeafHasRoom(leaf):
		return s.commitLeafPath(sp, leaf, +1, span, func(tx *rewind.Tx) error {
			return t.InsertInLeaf(tx, leaf, pos, key, rec)
		})
	default:
		// Leaf full: the insert splits. Restart on the structural tier.
		sp.latches.Unlock(leaf)
		sp.wmu.RUnlock()
		s.fallbacks.Add(1)
		return s.updatePinned(sp, span, func(tx *rewind.Tx) error {
			_, err := t.Insert(tx, key, rec)
			return err
		})
	}
}

// Delete durably removes key, reporting whether it was present.
func (s *Store) Delete(key uint64) (bool, error) { return s.DeleteSpan(key, nil) }

// DeleteSpan is Delete with an observability span attached (see PutSpan).
func (s *Store) DeleteSpan(key uint64, span *obs.Span) (bool, error) {
	found, t, err := s.PublishDelete(key, span)
	s.st.WaitDurable(t, span)
	return found, err
}

// PublishDelete is Delete up to commit publish (see PublishPut).
func (s *Store) PublishDelete(key uint64, span *obs.Span) (bool, rewind.Ticket, error) {
	s.dels.Add(1)
	idx := s.stripeIndex(key)
	sp := s.stripes[idx]
	if s.cfg.SerialWrites {
		found := false
		err := s.update([]int{idx}, span, func(tx *rewind.Tx) error {
			var err error
			found, err = sp.tree.Delete(tx, key)
			return err
		})
		return found, rewind.Ticket{}, err
	}
	t := sp.tree
	lw := s.latchStart()
	sp.wmu.RLock()
	leaf := t.SeekLeafNode(key)
	if sp.latches.Lock(leaf) {
		s.latchWaits.Add(1)
	}
	s.latchDone(lw, span)
	pos, eq := t.LeafFind(leaf, key)
	if !eq {
		// Absent: no transaction, no log traffic.
		sp.latches.Unlock(leaf)
		sp.wmu.RUnlock()
		return false, rewind.Ticket{}, nil
	}
	if t.LeafCanShrink(leaf) {
		tk, err := s.commitLeafPath(sp, leaf, -1, span, func(tx *rewind.Tx) error {
			return t.DeleteInLeaf(tx, leaf, pos)
		})
		return err == nil, tk, err
	}
	// Underflow: the delete rebalances. Restart on the structural tier.
	sp.latches.Unlock(leaf)
	sp.wmu.RUnlock()
	s.fallbacks.Add(1)
	found := false
	tk, err := s.updatePinned(sp, span, func(tx *rewind.Tx) error {
		var err error
		found, err = t.Delete(tx, key)
		return err
	})
	return found, tk, err
}

// Op is one Batch operation.
type Op struct {
	// Delete selects removal; otherwise the op is a put of Value.
	Delete bool
	Key    uint64
	Value  []byte
}

// Batch applies every operation inside ONE transaction: either all of
// them are durably applied or — after a crash or an error — none are.
// Stripe latches are taken in ascending order (the same order Scan and
// multi-stripe internals use), so Batch never deadlocks against itself. A
// batch whose keys all land in ONE stripe skips the multi-stripe protocol
// entirely and commits on that stripe's pinned shard, releasing the
// stripe at publish like any other single-stripe write.
func (s *Store) Batch(ops []Op) error {
	t, err := s.PublishBatch(ops, nil)
	s.st.WaitDurable(t, nil)
	return err
}

// PublishBatch is Batch up to commit publish (see PublishPut) for a batch
// confined to one stripe. A batch spanning stripes commits through the
// exclusive multi-stripe path, which is synchronous: PublishBatch then
// returns only once the batch is durable, with the zero ticket.
func (s *Store) PublishBatch(ops []Op, span *obs.Span) (rewind.Ticket, error) {
	if len(ops) == 0 {
		return rewind.Ticket{}, nil
	}
	s.batches.Add(1)
	// Collect the involved stripes in ascending index order.
	involved := map[uint64]bool{}
	for _, op := range ops {
		if !op.Delete && len(op.Value) > s.cfg.MaxValue {
			return rewind.Ticket{}, ErrValueTooLarge
		}
		involved[op.Key%uint64(len(s.stripes))] = true
	}
	idx := make([]int, 0, len(involved))
	for i := range involved {
		idx = append(idx, int(i))
	}
	sort.Ints(idx)
	apply := func(tx *rewind.Tx) error {
		var rec []byte
		for _, op := range ops {
			sp := s.stripeOf(op.Key)
			if op.Delete {
				if _, err := sp.tree.Delete(tx, op.Key); err != nil {
					return err
				}
			} else {
				rec = s.encode(rec, op.Value)
				if _, err := sp.tree.Insert(tx, op.Key, rec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if len(idx) == 1 && !s.cfg.SerialWrites {
		return s.updatePinned(s.stripes[idx[0]], span, apply)
	}
	return rewind.Ticket{}, s.update(idx, span, apply)
}

// Len returns the total number of keys across all stripes. It reads each
// stripe's count word without the latch — the count is a single atomically
// stored word, so the result is exact on a quiescent store and at worst
// momentarily off by in-flight transactions on a busy one; taking latches
// here would park STATS behind every in-flight commit.
func (s *Store) Len() int {
	n := 0
	for _, sp := range s.stripes {
		n += sp.tree.Len()
	}
	return n
}

// Stats counts store activity since creation (volatile).
type Stats struct {
	Gets, Puts, Deletes, Scans, Batches int64
	// ReadRetries counts optimistic read attempts discarded because a
	// writer's seqlock window overlapped them; ReadFallbacks counts reads
	// that exhausted their readAttempts optimistic attempts and took the
	// latch.
	ReadRetries, ReadFallbacks int64
	// OverwriteFastPath counts Puts that took the non-structural
	// per-record overwrite path; LeafLatchWaits counts leaf/header latch
	// acquisitions that contended (another writer held the bucket);
	// StripeLatchFallbacks counts writes that restarted on the
	// stripe-exclusive tier because the mutation was structural (leaf
	// split or rebalance).
	OverwriteFastPath, LeafLatchWaits, StripeLatchFallbacks int64
	// TxnBegins/TxnCommits/TxnRollbacks count interactive transaction
	// handles opened, committed, and rolled back; TxnConflicts counts
	// commits aborted by for-update read validation.
	TxnBegins, TxnCommits, TxnRollbacks, TxnConflicts int64
	// CasAttempts counts conditional operations (CAS, put-if-absent);
	// CasApplied counts the ones whose condition held and that mutated
	// (or durably confirmed) the store.
	CasAttempts, CasApplied int64
	// Compactions counts completed CompactStep cycles that condemned a
	// segment; CompactedNodes counts tree nodes migrated out of condemned
	// segments; ReclaimedBytes counts bytes hole-punched back to the OS.
	Compactions, CompactedNodes, ReclaimedBytes int64
	Keys                                        int
	Stripes                                     int
}

// Stats returns a snapshot of activity counters and the current key count.
func (s *Store) Stats() Stats {
	return Stats{
		Gets: s.gets.Load(), Puts: s.puts.Load(), Deletes: s.dels.Load(),
		Scans: s.scans.Load(), Batches: s.batches.Load(),
		ReadRetries: s.readRetries.Load(), ReadFallbacks: s.readFallbacks.Load(),
		OverwriteFastPath: s.fastPath.Load(), LeafLatchWaits: s.latchWaits.Load(),
		StripeLatchFallbacks: s.fallbacks.Load(),
		TxnBegins:            s.txnBegins.Load(), TxnCommits: s.txnCommits.Load(),
		TxnRollbacks: s.txnRollbacks.Load(), TxnConflicts: s.txnConflicts.Load(),
		CasAttempts: s.casAttempts.Load(), CasApplied: s.casApplied.Load(),
		Compactions:    s.compactions.Load(),
		CompactedNodes: s.compactMoved.Load(),
		ReclaimedBytes: s.compactReleased.Load(),
		Keys:           s.Len(), Stripes: len(s.stripes),
	}
}

// RegisterMetrics publishes the kv activity counters as gauge families
// on r under the rewind_kv_* namespace. One Stats snapshot is taken per
// scrape. Call once per store.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.Group(func(emitf func(name, help string, v float64)) {
		emit := func(name, help string, v int64) { emitf(name, help, float64(v)) }
		st := s.Stats()
		emit("rewind_kv_gets_total", "Get operations served.", st.Gets)
		emit("rewind_kv_puts_total", "Put operations committed.", st.Puts)
		emit("rewind_kv_deletes_total", "Delete operations committed.", st.Deletes)
		emit("rewind_kv_scans_total", "Scan operations served.", st.Scans)
		emit("rewind_kv_batches_total", "Batch transactions committed.", st.Batches)
		emit("rewind_kv_read_retries_total", "Optimistic read attempts discarded by seqlock interference.", st.ReadRetries)
		emit("rewind_kv_read_fallbacks_total", "Reads that exhausted their optimistic attempts and took the stripe latch.", st.ReadFallbacks)
		emit("rewind_kv_overwrite_fast_path_total", "Puts that took the single-leaf overwrite fast path.", st.OverwriteFastPath)
		emit("rewind_kv_leaf_latch_waits_total", "Leaf/header latch acquisitions that contended.", st.LeafLatchWaits)
		emit("rewind_kv_stripe_latch_fallbacks_total", "Writes restarted on the stripe-exclusive tier (splits/rebalances).", st.StripeLatchFallbacks)
		emit("rewind_kv_txn_begins_total", "Interactive transactions opened.", st.TxnBegins)
		emit("rewind_kv_txn_commits_total", "Interactive transactions committed.", st.TxnCommits)
		emit("rewind_kv_txn_rollbacks_total", "Interactive transactions rolled back.", st.TxnRollbacks)
		emit("rewind_kv_txn_conflicts_total", "Interactive commits aborted by for-update read validation.", st.TxnConflicts)
		emit("rewind_kv_cas_attempts_total", "Conditional operations attempted (CAS, put-if-absent).", st.CasAttempts)
		emit("rewind_kv_cas_applied_total", "Conditional operations whose condition held.", st.CasApplied)
		emit("rewind_kv_compactions_total", "Completed compaction cycles that condemned a segment.", st.Compactions)
		emit("rewind_kv_compacted_nodes_total", "Tree nodes migrated out of condemned segments.", st.CompactedNodes)
		emit("rewind_kv_reclaimed_bytes_total", "Bytes hole-punched back to the OS by compaction.", st.ReclaimedBytes)
		emit("rewind_kv_keys", "Keys currently stored across all stripes.", int64(st.Keys))
		emit("rewind_kv_stripes", "Configured stripe count.", int64(st.Stripes))
	})
}

// CheckInvariants validates every stripe tree (tests and torture
// harnesses).
func (s *Store) CheckInvariants() error {
	for i, sp := range s.stripes {
		sp.wmu.Lock()
		err := sp.tree.CheckInvariants()
		sp.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("stripe %d: %w", i, err)
		}
	}
	return nil
}
