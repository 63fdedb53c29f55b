// Package core implements REWIND's transaction recovery manager (paper §4):
// write-ahead logging over the recoverable log structures, commit and
// rollback with compensation log records, two- and three-phase recovery
// (Algorithm 2), log checkpointing, and deferred deallocation via DELETE
// records.
//
// The manager supports the paper's full design space (§2):
//
//   - Policy: Force makes every user update durable as it happens
//     (non-temporal stores) and clears a transaction's log records right
//     after commit, giving two-phase recovery (analysis + undo). NoForce
//     leaves user updates in the cache, clears the log at checkpoints, and
//     needs three-phase recovery (analysis + redo + undo).
//   - Layers: OneLayer appends records straight into the bucketed ADLL and
//     keeps no per-transaction state while logging — recovery performs one
//     backward scan that undoes every loser (Algorithm 2). TwoLayer indexes
//     records by transaction in the AAVLT (whose own updates are logged in
//     the ADLL), paying more per log call but rolling single transactions
//     back without scanning unrelated records.
//
// The log layout (Simple / Optimized / Batch, §3.2–3.3) is a further knob.
// Batch defers user-update persistence to group-flush boundaries, which the
// manager honours by re-issuing buffered durable writes when the log
// signals a flush — the compiler-reordering scheme of §3.3 in library form.
//
// # Sharded logging
//
// Config.LogShards splits the one-layer primary log into N independent
// rlog.Log instances, one NVM root slot each. A transaction is hashed to a
// shard by its identifier and all of its records live in that shard, so
// commits on different shards never contend: each shard has its own mutex
// and its own Batch pending-write buffer. LSNs still come from one global
// atomic counter, so a total order over records exists across shards;
// recovery opens every shard and merges their surviving records by LSN into
// a single analysis/redo/undo pass, and checkpoints clear shards
// independently (a long clearing scan on one shard no longer stalls appends
// on the others). LogShards=1 (the default) reproduces the paper's single
// global log exactly; the shard fan-out generalizes §5.3's distributed-
// logging observation that independent logs are what unlock multicore
// persistent-log throughput.
//
// # Commit modes
//
// Config.CommitMode selects what the log must carry. UndoRedo (the
// default) is the paper's design: updates apply in place as they are
// logged with before- and after-images, losers are compensated with CLRs.
// RedoOnly bounds losers instead of compensating them: a transaction's
// writes stay in a private volatile buffer (reads through the handle see
// them; the shared image does not) and commit publishes the buffer as
// redo-only span records — after-images only, roughly half the log bytes —
// plus an END, before or after mutating the image depending on policy.
// Rollback just discards the buffer, and recovery is analysis + redo of
// the winners: a loser never touched the image, so the undo phase (the one
// globally serial recovery pass) disappears.
//
// # Span records and the handle fast path
//
// Two departures from the paper's letter (not its guarantees) serve the
// production goal. First, WriteBytes logs a contiguous multi-word update
// as a single variable-length span record (rlog.FlagSpan) instead of one
// 7-word record per word: one log insert and — under Simple/Optimized —
// one flush + fence per span, the amortization in-cache-line logging
// systems apply to cache-line units. Rollback and recovery compensate a
// span with one span CLR and redo/undo it word-wise. Second, a transaction
// is one object: Begin returns the *Txn that carries its shard pointer and
// all of its volatile state, every operation is a method on it, and a live
// manager keeps no table of transactions at all (§2: the one-layer
// configuration "keeps no per-transaction state while logging"). A finished
// transaction leaves an {id, committed} entry on its shard's finished list,
// under the same shard-mutex hold that appends its END record, for the next
// checkpoint to clear; the tid-keyed table of §4.1 exists only inside
// recovery, which rebuilds it by analysis and drops it when it is done.
//
// Lock order: shard mutexes (ascending index) before the manager's mutex,
// which guards only the last checkpoint's report and the first-use dirty
// mark. Concurrency control over user data remains the caller's job (§4.7):
// two transactions racing on the same word are as unsynchronized here as on
// real hardware.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rewind-db/rewind/internal/avl"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// Policy selects when user updates become durable (§2).
type Policy int

const (
	// NoForce leaves user updates cached; they are persisted wholesale by
	// checkpoints. Recovery needs a redo phase.
	NoForce Policy = iota
	// Force persists user updates as they happen and clears log records at
	// commit time; recovery skips the redo phase.
	Force
)

func (p Policy) String() string {
	if p == Force {
		return "FP"
	}
	return "NFP"
}

// CommitMode selects how a transaction's writes reach the shared image and
// what its log records must carry (see the package comment's "Commit
// modes").
type CommitMode int

const (
	// UndoRedo logs before- and after-images and applies writes in place;
	// losers are rolled back with compensation records. The paper's mode.
	UndoRedo CommitMode = iota
	// RedoOnly buffers writes privately until commit and logs after-images
	// only; losers are discarded, never compensated, and recovery skips
	// the undo phase entirely.
	RedoOnly
)

func (m CommitMode) String() string {
	if m == RedoOnly {
		return "RO"
	}
	return "UR"
}

// Layers selects the number of logging layers (§2).
type Layers int

const (
	// OneLayer logs records directly in the bucketed ADLL.
	OneLayer Layers = iota
	// TwoLayer indexes records by transaction in the AAVLT.
	TwoLayer
)

func (l Layers) String() string {
	if l == TwoLayer {
		return "2L"
	}
	return "1L"
}

// Transaction status values, as in the paper's transaction table (§4.1).
type status int

const (
	statusRunning status = iota
	statusAborted
	statusFinished
)

// SlotsPerTM is the minimum number of pmem root slots a manager occupies,
// so multiple managers (the distributed-logging configuration of §5.3) can
// be packed side by side. A sharded manager may occupy more: see
// Config.Slots.
const SlotsPerTM = 4

const (
	slotState   = iota // manager state block
	slotLog            // primary log header (shard 0; shard i lives at slotLog+i)
	slotTree           // AAVLT header (two-layer)
	slotTreeLog        // AAVLT mini-log header (two-layer)
)

// Manager state block layout.
const (
	stFingerprint = 0
	stDirty       = 8
	stSize        = 16
)

const stateMagicBase = 0x524d4454 // "TDMR" tag in the fingerprint's high bits

// Config selects a REWIND configuration.
type Config struct {
	Policy Policy
	Layers Layers
	// CommitMode selects undo/redo logging (the default) or redo-only
	// commit: private write buffers published at commit as old-image-free
	// span records, rollback by discard, undo-free recovery. RedoOnly
	// requires OneLayer — the two-layer index exists for selective
	// log-based rollback, which redo-only transactions never perform.
	CommitMode CommitMode
	// LogKind is the primary log implementation. TwoLayer requires Simple
	// or Optimized for the underlying ADLL (the paper's two-layer
	// configuration runs over the optimized log).
	LogKind rlog.Kind
	// BucketSize and GroupSize tune the bucketed and batched logs.
	BucketSize int
	GroupSize  int
	// LogShards is the number of independent primary logs the one-layer
	// configuration stripes transactions over (default 1, the paper's
	// single global log). Each shard owns one root slot above RootBase.
	// TwoLayer requires LogShards <= 1: its records live in the AAVLT.
	LogShards int
	// GroupCommit merges commits from concurrent transactions into shared
	// log flushes: Publish appends the END record without its usual per-
	// transaction group flush and returns a Ticket; WaitDurable returns at
	// once when a flush has already covered the ticket and otherwise joins
	// or leads a per-shard round that issues ONE flush + fence +
	// persisted-index store covering every END published by then — those
	// of the round's waiters and those nobody is waiting on yet (a
	// connection's pipelined burst). Commit is Publish + WaitDurable, so
	// its durability contract is unchanged; only the fence bill is split.
	// It generalizes the Batch log's group flush (§3.3) from
	// one-transaction-many-records to many-transactions, and requires the
	// configuration it extends: OneLayer + Batch + NoForce. (Under Force a
	// commit must persist its own user data before its END; ordering that
	// inside a shared flush would reintroduce the per-commit fence the
	// feature exists to remove.)
	GroupCommit bool
	// GroupCommitWindow bounds how long a round's leader waits for more
	// waiters before flushing. Zero means the 100µs default; a negative
	// window skips the wait, batching only commits published by the time
	// the leader holds the shard. The leader sleeps the window only when
	// BOTH hold: every commit the round would cover has a waiter of its
	// own (nobody is pipelining — a caller waiting on a burst of tickets
	// has brought its fan-in with it and can add nothing while it waits),
	// and there is a sign of company — another waiter already in the
	// round, a transaction mid-flight on the shard, or a previous round
	// that had more than one waiter. So a lone, unpipelined commit
	// flushes at once, and so does a pipelined burst.
	GroupCommitWindow time.Duration
	// GroupCommitMax closes a round early once this many waiters have
	// joined (default 64).
	GroupCommitMax int
	// RecoveryWorkers is the number of goroutines Open's recovery pass uses
	// for the per-shard analysis and redo phases (undo stays a single
	// backward pass in global LSN order). Non-positive means one worker per
	// CPU; the pool never exceeds LogShards. It is a volatile knob — not
	// part of the durable fingerprint — so the same image may be recovered
	// sequentially or in parallel, and the result is byte-identical (the
	// crash-equivalence harness holds this to account).
	RecoveryWorkers int
	// RootBase is the first of the Slots() pmem root slots this manager
	// owns.
	RootBase int
	// Obs, when non-nil, receives commit-pipeline phase timings — latch
	// wait, log append, group-commit gather, flush+fence, publish — for
	// every commit, in wall-clock and virtual-clock nanoseconds. It is a
	// volatile knob, never part of the durable fingerprint: the same
	// image may be opened observed or unobserved. nil (the default)
	// costs the commit path one pointer test.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.BucketSize <= 0 {
		c.BucketSize = rlog.DefaultBucketSize
	}
	if c.GroupSize <= 0 {
		c.GroupSize = rlog.DefaultGroupSize
	}
	if c.LogShards <= 0 {
		c.LogShards = 1
	}
	if c.GroupCommit {
		if c.GroupCommitWindow == 0 {
			c.GroupCommitWindow = 100 * time.Microsecond
		}
		if c.GroupCommitMax <= 0 {
			c.GroupCommitMax = 64
		}
	}
	return c
}

// Slots returns the number of pmem root slots the configuration occupies:
// the state block plus one per log shard, never less than SlotsPerTM (the
// two-layer slots keep their historical positions).
func (c Config) Slots() int {
	shards := c.LogShards
	if shards <= 0 {
		shards = 1
	}
	if n := 1 + shards; n > SlotsPerTM {
		return n
	}
	return SlotsPerTM
}

func (c Config) validate() error {
	if c.Layers == TwoLayer && c.LogKind == rlog.Batch {
		return errors.New("core: the two-layer configuration uses the optimized ADLL; Batch applies to one-layer logging")
	}
	if c.Layers == OneLayer && (c.LogKind < rlog.Simple || c.LogKind > rlog.Batch) {
		return fmt.Errorf("core: invalid log kind %d", c.LogKind)
	}
	if c.Layers == TwoLayer && c.LogShards > 1 {
		return errors.New("core: the two-layer configuration keeps its records in the AAVLT; LogShards applies to one-layer logging")
	}
	if c.LogShards > maxLogShards {
		return fmt.Errorf("core: %d log shards exceed the maximum of %d", c.LogShards, maxLogShards)
	}
	if c.GroupCommit && (c.Layers != OneLayer || c.LogKind != rlog.Batch || c.Policy != NoForce) {
		return errors.New("core: group commit extends the Batch log's group flush; it requires OneLayer + Batch + NoForce")
	}
	if c.CommitMode == RedoOnly && c.Layers == TwoLayer {
		return errors.New("core: the two-layer index exists for selective log-based rollback; RedoOnly requires OneLayer")
	}
	if c.CommitMode < UndoRedo || c.CommitMode > RedoOnly {
		return fmt.Errorf("core: invalid commit mode %d", c.CommitMode)
	}
	if c.RootBase < 0 || c.RootBase+c.Slots() > pmem.NumRoots {
		return fmt.Errorf("core: root base %d out of range", c.RootBase)
	}
	return nil
}

// maxLogShards bounds the shard count so it fits both the root-slot space
// and the fingerprint's shard bits.
const maxLogShards = 47

// fingerprint packs the shape of the configuration for Open-time checks.
// LogShards is encoded as shards-1 so single-shard images keep the exact
// fingerprint of the pre-sharding layout; CommitMode rides in bit 17
// (Layers never exceeds 1, leaving the <<16 field's upper bits free), so
// undo/redo images keep their historical fingerprints and a redo-only log
// — whose records would be misread as compensable — can never be opened in
// undo/redo mode, or vice versa.
func (c Config) fingerprint() uint64 {
	return uint64(stateMagicBase)<<32 |
		uint64(c.LogShards-1)<<25 |
		uint64(c.Policy)<<24 | uint64(c.CommitMode)<<17 |
		uint64(c.Layers)<<16 | uint64(c.LogKind)<<8 |
		uint64(c.BucketSize%251)
}

// String renders the configuration the way the paper labels its plots
// (e.g. "1L-NFP/Optimized"), with a shard suffix when sharded and an "-RO"
// suffix for redo-only commit.
func (c Config) String() string {
	s := fmt.Sprintf("%v-%v/%v", c.Layers, c.Policy, c.LogKind)
	if c.LogShards > 1 {
		s += fmt.Sprintf("x%d", c.LogShards)
	}
	if c.CommitMode == RedoOnly {
		s += "-RO"
	}
	return s
}

// redoBuf is a RedoOnly transaction's private buffer: every write lands
// here — plain Go memory, gone on crash or rollback — and nothing reaches
// the log or the shared image before commit. Word-keyed, last write wins.
type redoBuf struct {
	writes  map[uint64]uint64
	deletes []uint64 // deferred deallocations, applied only if committed
}

// load reads one word as the buffering transaction sees it: its own last
// write if present, the shared image otherwise.
func (b *redoBuf) load(mem *nvm.Memory, addr uint64) uint64 {
	if v, ok := b.writes[addr]; ok {
		return v
	}
	return mem.Load64(addr)
}

// Ticket names one published commit: the log shard its END record joined
// and that END's ordinal among the shard's published commits. It is a
// plain value — publishing allocates nothing and opens no channel — that
// WaitDurable compares against the shard's durable mark. The zero Ticket
// is "nothing to wait for".
type Ticket struct {
	Shard int
	Seq   uint64
}

// Txn is one transaction: the handle Begin returns, the volatile state the
// paper keeps in a transaction-table entry (§4.1), and — inside recovery
// only — the entry analysis rebuilds. Nothing in a live manager points at
// it, so it is collectable the moment its caller drops it.
//
// A Txn is not safe for concurrent use by multiple goroutines; run one
// transaction per goroutine (the manager itself is concurrent). Every field
// belongs to that goroutine; recovery, which is the only other writer, never
// runs concurrently with live handles.
type Txn struct {
	tm *TM
	sh *logShard

	id uint64
	// status is statusFinished from the moment Commit, Publish,
	// CommitKeepLog or Rollback is entered (what Done reports); recovery
	// also uses statusAborted for a loser found mid-rollback.
	status  status
	aborted bool // finished by rollback: DELETE records must not free
	// last is the transaction's newest record: the tail of the two-layer
	// record chain, and under one-layer logging the record a commit folds
	// its END into (appendEnd).
	last rlog.Ref
	// buf is the RedoOnly private write set; nil under UndoRedo.
	buf *redoBuf

	// onPublish is invoked exactly once inside Commit at the moment every
	// write is visible in the shared image (see OnPublish).
	onPublish func()
	// span, when non-nil, additionally receives Commit's phase timings
	// (set by Observe; Config.Obs must be set for timings to be taken).
	span *obs.Span
	// ticket is set by Publish before the OnPublish hook fires.
	ticket Ticket
}

// ID returns the transaction identifier.
func (x *Txn) ID() uint64 { return x.id }

// Buffered reports whether this transaction's writes are held in a private
// buffer until commit (RedoOnly) rather than applied in place — callers
// that read the image directly must route reads through Read64/ReadBytes
// to see their own writes.
func (x *Txn) Buffered() bool { return x.buf != nil }

// Observe attaches an observability span to the transaction: when the
// manager has a Config.Obs, Commit's per-phase timings are accumulated
// into the span as well as into the global phase histograms, giving the
// request that owns the transaction its own flight record.
func (x *Txn) Observe(span *obs.Span) { x.span = span }

// OnPublish registers fn to run exactly once, inside Commit, at the point
// the transaction's writes are all visible in the shared image: at entry
// under UndoRedo (in-place writes are already visible) and right after the
// buffer publish under RedoOnly. In both cases fn runs before Commit
// blocks on durability, so readers fn releases never wait out a flush.
// fn runs under the shard mutex: hooks of one shard run one at a time, in
// the shard's commit (ticket) order. Rollback drops the hook unrun.
func (x *Txn) OnPublish(fn func()) { x.onPublish = fn }

// Ticket returns the commit's ticket. It is valid from the OnPublish hook
// onward (the zero Ticket before that), so a hook can record it while the
// latches that order this commit against its dependents are still held.
func (x *Txn) Ticket() Ticket { return x.ticket }

// firePublish fires the OnPublish hook, once.
func (x *Txn) firePublish() {
	if fn := x.onPublish; fn != nil {
		x.onPublish = nil
		fn()
	}
}

// Done reports whether the transaction has been committed, published or
// rolled back (or one of those was started: a transaction whose commit was
// cut short by a panic is done, not rolled back).
func (x *Txn) Done() bool { return x.status == statusFinished }

// running rejects use of a finished handle.
func (x *Txn) running() error {
	if x.Done() {
		return ErrTxnFinished
	}
	return nil
}

// Alloc allocates a persistent block. The allocation itself is not undone
// by rollback (a crash or abort merely leaks it, as in the paper's model);
// allocate first, then publish the block with logged writes.
func (x *Txn) Alloc(size int) uint64 { return x.tm.a.Alloc(size) }

// pendingWrite is a user update waiting for its Batch group flush before it
// may become durable (§3.3 reordering).
type pendingWrite struct {
	addr, val uint64
}

// logShard is one stripe of the primary log: an independent rlog.Log with
// its own mutex, Batch pending-write buffer and activity counters, so
// transactions on different shards log and commit without contending. In
// the two-layer configuration there is a single shard whose log is nil (the
// AAVLT holds the records) and whose mutex serializes record insertion.
type logShard struct {
	mu      sync.Mutex
	log     *rlog.Log // nil in the two-layer configuration
	pending []pendingWrite
	// images backs the old/new images of the span record being built
	// (spanImages); the record copies them into NVM before mu is released.
	images []uint64

	idx int // position in TM.shards; the Shard of this shard's tickets

	// endSeq counts the commits published on this shard (advanced under
	// mu): the Seq of the next ticket is endSeq+1. durable is the highest
	// endSeq a completed log force has covered; every forceLogShard
	// advances it, under mu, so it never passes an END that is not in
	// NVM. WaitDurable reads it without any lock.
	endSeq  atomic.Uint64
	durable atomic.Uint64

	// Group commit: gcMu guards the open round. The leader (the waiter
	// that opens a round) gathers company for the configured window, then
	// flushes once on behalf of everyone (see TM.WaitDurable). gcMomentum
	// remembers whether the last round had more than one waiter.
	gcMu       sync.Mutex
	gcRound    *gcRound
	gcMomentum bool
	// running counts transactions begun on this shard and not yet
	// published or rolled back. A group-commit leader consults it: a
	// transaction mid-flight is about to append an END the pending flush
	// can cover for free.
	running atomic.Int64
	// finished lists the transactions whose END joined this shard since the
	// last checkpoint took the list (NoForce only: Force clears at commit).
	// An entry is appended under the same mu hold that appends its END, so a
	// checkpoint's stamp freeze — holding mu with the log forced — sees END
	// and entry together or neither.
	finished []doneTxn

	appends     atomic.Int64
	flushes     atomic.Int64
	commits     atomic.Int64
	uncontended atomic.Int64
	gcRounds    atomic.Int64
	gcGrouped   atomic.Int64
	// logBytes carries the two-layer configuration's appended-record
	// footprint; one-layer shards read it from their rlog.Log instead.
	logBytes atomic.Int64
}

// doneTxn is a finished transaction awaiting its checkpoint: all that
// clearing its records needs to know.
type doneTxn struct {
	id        uint64
	committed bool // false: rolled back, its DELETE records must not free
}

// spanImages returns two n-word scratch slices for a span record's old and
// new images, valid until the next call. Callers hold sh.mu.
func (sh *logShard) spanImages(n int) (oldS, newS []uint64) {
	if cap(sh.images) < 2*n {
		sh.images = make([]uint64, 2*n)
	}
	return sh.images[:n], sh.images[n : 2*n]
}

// gcRound is one group-commit round on a shard: the waiters that will
// share a single log flush. full is closed when GroupCommitMax waiters
// have joined (the leader stops waiting early); done is closed by the
// leader once the shared flush has made every member's END durable.
type gcRound struct {
	n        int
	fullSent bool
	full     chan struct{}
	done     chan struct{}
}

// ShardStats counts one shard's activity since creation.
type ShardStats struct {
	// Appends counts log records inserted into this shard.
	Appends int64
	// Flushes counts Batch group flushes issued on this shard (forced or at
	// group boundaries).
	Flushes int64
	// Commits counts transactions committed on this shard.
	Commits int64
	// UncontendedCommits counts commits that acquired the shard mutex
	// without waiting — with enough shards relative to workers this
	// approaches Commits, which is the scaling the sharded log buys.
	UncontendedCommits int64
	// GroupCommitRounds counts shared flushes issued by group-commit
	// round leaders (a round that found everything already durable issues
	// none and is not counted). Commits / GroupCommitRounds is the
	// average number of transactions retired per log flush — the fan-in
	// group commit buys.
	GroupCommitRounds int64
	// GroupedCommits counts commits whose covering round flush covered at
	// least one other commit (i.e. actually split a fence bill).
	GroupedCommits int64
	// LogBytes is the total footprint of the records appended to this
	// shard — headers plus span payloads — since attach. Cumulative write
	// volume, not occupancy: clearing does not subtract. This is the
	// counter the commit-mode footprint gate compares.
	LogBytes int64
}

// Stats counts manager activity since creation.
type Stats struct {
	Begun       int64
	Committed   int64
	RolledBack  int64
	Records     int64
	Checkpoints int64
	// Shards holds per-shard counters, one entry per log shard (a single
	// entry for unsharded and two-layer managers). Records equals the sum
	// of the shards' Appends, LogBytes the sum of their LogBytes.
	LogBytes int64
	Shards   []ShardStats
}

// RecoveryStats reports what Open's recovery pass did.
type RecoveryStats struct {
	// CrashDetected is true when the previous session did not close
	// cleanly.
	CrashDetected bool
	// RecordsScanned counts records visited during analysis, across every
	// shard.
	RecordsScanned int
	// ShardRecords counts the surviving records found in each shard (nil
	// for the two-layer configuration).
	ShardRecords []int
	// MaxLSN is the highest LSN among surviving records; the global LSN
	// counter resumes above it.
	MaxLSN uint64
	// Redone counts redo-phase record applications (NoForce, plus every
	// RedoOnly configuration — a redo-only commit may durably log its END
	// before its data reaches NVM, so redo must repeat winners' history
	// even under Force).
	Redone int
	// CLRRecords counts compensation records among the surviving records.
	// Always zero for redo-only images, which never log compensations.
	CLRRecords int
	// RedoConflictWords counts words that were written by records of more
	// than one shard and therefore re-played serially in global LSN order
	// after the parallel per-shard redo (0 for sequential recovery).
	RedoConflictWords int
	// Undone counts updates compensated during the undo phase. RedoOnly
	// recovery skips undo entirely — losers never touched the image — so
	// this (and UndoNs, the serial tail of parallel recovery) stays zero
	// there.
	Undone int
	// LosersAborted counts transactions rolled back by recovery.
	LosersAborted int
	// Winners counts committed transactions found finished.
	Winners int
	// Workers is the size of the worker pool the analysis and redo phases
	// ran on (see Config.RecoveryWorkers).
	Workers int
	// Per-phase wall-clock durations in nanoseconds. FinishNs covers
	// everything after undo: the durability flush, the losers' END
	// records, deferred DELETEs, and the wholesale log clear.
	AnalysisNs, RedoNs, UndoNs, FinishNs int64
	// Per-phase virtual-clock charges (simulated device nanoseconds) for
	// the two parallelizable phases, used by the recovery-scaling figure
	// to model a worker pool's makespan deterministically.
	AnalysisSimNs, RedoSimNs int64
	// ArenaSize is the arena's published size at recovery time — the base
	// plus every extent the previous session durably grew (the extent
	// table is read before replay, so records landing in grown space redo
	// correctly). ArenaSegments counts base + extents.
	ArenaSize     int
	ArenaSegments int
}

// TM is a REWIND transaction recovery manager.
type TM struct {
	mem   *nvm.Memory
	a     *pmem.Allocator
	cfg   Config
	state uint64 // state block address

	shards []*logShard
	tree   *avl.Tree // two-layer only

	// lsn is the global LSN allocator: a single atomic counter, no mutex,
	// so a total record order exists across shards without serializing
	// them. Records may enter a shard's log slightly out of global LSN
	// order (each transaction's own records stay ordered); recovery sorts
	// by LSN where cross-transaction order matters.
	lsn     atomic.Uint64
	lastTxn atomic.Uint64 // last assigned transaction id

	begun, committed, rolledBack, checkpoints atomic.Int64

	// dirty mirrors the state block's dirty word, so only the first Begin
	// after New, Open or Close pays for the device (markDirty).
	dirty atomic.Bool

	mu       sync.Mutex      // guards lastCkpt and the dirty word's slow path
	lastCkpt CheckpointStats // most recent checkpoint's pacing report

	// table is the transaction table of §4.1. It exists only while Open
	// runs recovery, which rebuilds it by analysis; a live manager keeps
	// none (nil): a running transaction is its handle, a finished one an
	// entry on its shard's finished list.
	table map[uint64]*Txn
}

// New creates a fresh manager on a formatted heap.
func New(a *pmem.Allocator, cfg Config) (*TM, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := a.Mem()
	state := a.Alloc(stSize)
	m.StoreNT64(state+stFingerprint, cfg.fingerprint())
	m.StoreNT64(state+stDirty, 0)
	m.Fence()
	a.SetRoot(cfg.RootBase+slotState, state)

	tm := &TM{mem: m, a: a, cfg: cfg, state: state}
	if cfg.Layers == TwoLayer {
		// In the two-layer configuration the ADLL's role is played by the
		// AAVLT's internal mini-log; there is no separate primary log.
		tm.tree = avl.New(a, avl.Config{
			TreeSlot: cfg.RootBase + slotTree, LogSlot: cfg.RootBase + slotTreeLog,
			BucketSize: cfg.BucketSize,
		})
		tm.shards = []*logShard{{}}
	} else {
		for i := 0; i < cfg.LogShards; i++ {
			log := rlog.New(a, rlog.Config{
				Kind: cfg.LogKind, BucketSize: cfg.BucketSize, GroupSize: cfg.GroupSize,
				RootSlot: cfg.RootBase + slotLog + i,
			})
			tm.shards = append(tm.shards, &logShard{idx: i, log: log})
		}
	}
	return tm, nil
}

// Open reattaches to a manager after a crash or restart and runs recovery
// (§4.5). It is safe to call on a cleanly closed manager: every phase is
// idempotent.
func Open(a *pmem.Allocator, cfg Config) (*TM, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	m := a.Mem()
	state := a.Root(cfg.RootBase + slotState)
	if state == nvm.Null {
		return nil, nil, fmt.Errorf("core: root slot %d holds no manager", cfg.RootBase)
	}
	if fp := m.Load64(state + stFingerprint); fp != cfg.fingerprint() {
		return nil, nil, fmt.Errorf("core: configuration fingerprint mismatch (stored %#x, config %v)", fp, cfg)
	}

	tm := &TM{mem: m, a: a, cfg: cfg, state: state, table: map[uint64]*Txn{}}
	if cfg.Layers == TwoLayer {
		tree, err := avl.Open(a, avl.Config{
			TreeSlot: cfg.RootBase + slotTree, LogSlot: cfg.RootBase + slotTreeLog,
			BucketSize: cfg.BucketSize,
		})
		if err != nil {
			return nil, nil, err
		}
		tm.tree = tree
		tm.shards = []*logShard{{}}
	} else {
		for i := 0; i < cfg.LogShards; i++ {
			log, err := rlog.Open(a, rlog.Config{
				Kind: cfg.LogKind, BucketSize: cfg.BucketSize, GroupSize: cfg.GroupSize,
				RootSlot: cfg.RootBase + slotLog + i,
			})
			if err != nil {
				return nil, nil, err
			}
			tm.shards = append(tm.shards, &logShard{idx: i, log: log})
		}
	}
	rs := tm.recover()
	return tm, rs, nil
}

// Config returns the manager's configuration.
func (tm *TM) Config() Config { return tm.cfg }

// Mem returns the underlying NVM device (for stats and direct reads).
func (tm *TM) Mem() *nvm.Memory { return tm.mem }

// Alloc returns the persistent allocator.
func (tm *TM) Alloc() *pmem.Allocator { return tm.a }

// RawLog exposes the first log shard for diagnostics and experiments. It is
// nil in the two-layer configuration, whose records live in the AAVLT.
func (tm *TM) RawLog() *rlog.Log { return tm.shards[0].log }

// ShardLog exposes shard i's log (nil in the two-layer configuration).
func (tm *TM) ShardLog(i int) *rlog.Log { return tm.shards[i].log }

// NumShards returns the number of log shards (1 unless Config.LogShards).
func (tm *TM) NumShards() int { return len(tm.shards) }

// ShardOf returns the index of the shard transaction tid logs to.
func (tm *TM) ShardOf(tid uint64) int { return int(tid % uint64(len(tm.shards))) }

// LSN returns the last LSN handed out by the global counter.
func (tm *TM) LSN() uint64 { return tm.lsn.Load() }

// Tree exposes the AAVLT index (two-layer only; nil otherwise).
func (tm *TM) Tree() *avl.Tree { return tm.tree }

// Stats returns a snapshot of manager activity counters.
func (tm *TM) Stats() Stats {
	s := Stats{
		Begun:       tm.begun.Load(),
		Committed:   tm.committed.Load(),
		RolledBack:  tm.rolledBack.Load(),
		Checkpoints: tm.checkpoints.Load(),
		Shards:      make([]ShardStats, len(tm.shards)),
	}
	for i, sh := range tm.shards {
		bytes := sh.logBytes.Load()
		if sh.log != nil {
			bytes = sh.log.AppendedBytes()
		}
		s.Shards[i] = ShardStats{
			Appends:            sh.appends.Load(),
			Flushes:            sh.flushes.Load(),
			Commits:            sh.commits.Load(),
			UncontendedCommits: sh.uncontended.Load(),
			GroupCommitRounds:  sh.gcRounds.Load(),
			GroupedCommits:     sh.gcGrouped.Load(),
			LogBytes:           bytes,
		}
		s.Records += s.Shards[i].Appends
		s.LogBytes += s.Shards[i].LogBytes
	}
	return s
}

// ActiveTxns returns the number of transactions currently running or
// aborting.
func (tm *TM) ActiveTxns() int {
	n := int64(0)
	for _, sh := range tm.shards {
		n += sh.running.Load()
	}
	return int(n)
}

// shardFor returns the shard transaction tid is striped to.
func (tm *TM) shardFor(tid uint64) *logShard {
	return tm.shards[tid%uint64(len(tm.shards))]
}

// lock acquires the shard mutex, reporting whether the acquisition had to
// wait (the per-shard contention signal behind
// ShardStats.UncontendedCommits).
func (sh *logShard) lock() (contended bool) {
	if sh.mu.TryLock() {
		return false
	}
	sh.mu.Lock()
	return true
}

// markDirty durably records activity so a later Open can report whether a
// crash (rather than a clean Close) preceded it. The word changes only at
// first use, Close and the end of recovery, so all but the first caller
// return on the volatile mirror; the first issues the store under mu, so
// nobody passes this point — and no log record can become durable — before
// the mark has been issued.
func (tm *TM) markDirty() {
	if tm.dirty.Load() {
		return
	}
	tm.mu.Lock()
	if !tm.dirty.Load() {
		tm.mem.StoreNT64(tm.state+stDirty, 1)
		tm.dirty.Store(true)
	}
	tm.mu.Unlock()
}

// Close marks a clean shutdown. Under NoForce it checkpoints first so the
// durable image reflects all committed work. Transactions still active are
// deliberately left to be rolled back by the next Open, as after a crash.
func (tm *TM) Close() {
	if tm.cfg.Policy == NoForce {
		tm.Checkpoint()
		tm.mem.FlushAll()
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	// Drop the mirror first: a Begin racing this Close either was counted
	// running before the swap, and is seen below, or finds the mirror down
	// and re-marks under mu once Close is through.
	was := tm.dirty.Swap(false)
	if tm.ActiveTxns() > 0 {
		tm.dirty.Store(was)
		return
	}
	tm.mem.StoreNT64(tm.state+stDirty, 0)
	tm.mem.Fence()
}

// Errors returned by transaction operations.
var (
	ErrTxnFinished = errors.New("core: transaction already finished")
	// ErrUnalignedWrite is returned by WriteBytes when the target address
	// is not 8-byte aligned: physical logging works on whole words.
	ErrUnalignedWrite = errors.New("core: WriteBytes address is not 8-byte aligned")
	// ErrLogWithBatch is returned by the explicit Log call under the Batch
	// log, where the caller cannot know when a record becomes durable.
	ErrLogWithBatch = errors.New("core: explicit Log is unavailable under the Batch log; use Write64")
	// ErrLogRedoOnly is returned by the explicit Log call under RedoOnly,
	// where nothing is logged before commit and the caller must not issue
	// the data store itself.
	ErrLogRedoOnly = errors.New("core: explicit Log is unavailable under RedoOnly; use Write64")
)
