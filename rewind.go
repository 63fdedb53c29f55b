// Package rewind is a Go reproduction of REWIND — the Recovery Write-ahead
// system for In-memory Non-volatile Data-structures (Chatzistergiou, Cintra,
// Viglas; PVLDB 8(5), 2015).
//
// REWIND is a user-mode library for transactional recoverability of
// arbitrary data structures kept directly in byte-addressable non-volatile
// memory (NVM). Persistent data is accessed through loads and stores at
// word granularity; a write-ahead log — itself a recoverable in-NVM data
// structure — guarantees that committed transactions survive crashes and
// uncommitted ones roll back.
//
// Because Go's runtime hides cache-line flush control, this implementation
// runs over a simulated NVM device (see DESIGN.md for the substitution
// argument): the simulator reproduces the paper's persistence contract
// exactly (durable non-temporal stores, cached stores lost on crash,
// flushes, persistent fences, configurable latencies) and adds
// deterministic crash injection, which the test suite uses to validate
// recovery from a torn state at every instruction boundary.
//
// Basic usage:
//
//	st, _ := rewind.Open(rewind.Options{})
//	addr := st.Alloc(16)                     // a persistent block
//	err := st.Atomic(func(tx *rewind.Tx) error {
//	    tx.Write64(addr, 1)                  // logged + applied
//	    tx.Write64(addr+8, 2)
//	    return nil                           // commit (non-nil would roll back)
//	})
//
// The four configurations of the paper (§2) are selected with
// Options.Policy and Options.Layers; the three log implementations (§3)
// with Options.LogKind.
package rewind

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/rewind-db/rewind/internal/core"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// Policy re-exports the force/no-force choice (§2).
type Policy = core.Policy

// Policies.
const (
	// NoForce leaves user updates cached until a checkpoint; recovery
	// redoes committed work. Lowest logging overhead.
	NoForce = core.NoForce
	// Force persists user updates immediately and clears the log at
	// commit; recovery is two-phase but commits are slower.
	Force = core.Force
)

// Layers re-exports the one-/two-layer logging choice (§2).
type Layers = core.Layers

// Layer choices.
const (
	// OneLayer logs into the bucketed ADLL directly: fastest logging,
	// whole-log scans for selective rollback.
	OneLayer = core.OneLayer
	// TwoLayer indexes records per transaction in an AVL tree: slower
	// logging, fast selective rollback.
	TwoLayer = core.TwoLayer
)

// CommitMode re-exports the undo/redo vs redo-only logging choice.
type CommitMode = core.CommitMode

// Commit modes.
const (
	// UndoRedo is the paper's protocol: every write is logged with both
	// images and applied in place, so any configuration can selectively
	// roll back an individual transaction from the log.
	UndoRedo = core.UndoRedo
	// RedoOnly buffers a transaction's writes privately and publishes them
	// at commit as old-image-free redo records — about half the log volume
	// — with rollback a free buffer discard and recovery skipping the
	// serial undo pass entirely. Requires OneLayer. See core.RedoOnly.
	RedoOnly = core.RedoOnly
)

// LogKind re-exports the log implementation choice (§3).
type LogKind = rlog.Kind

// Log implementations.
const (
	// Simple is the plain atomic doubly-linked list (§3.2).
	Simple = rlog.Simple
	// Optimized blocks records into buckets (§3.3, Figure 2).
	Optimized = rlog.Optimized
	// Batch groups multiple records per flush/fence (§3.3).
	Batch = rlog.Batch
)

// Options configures a Store. The zero value gives the paper's headline
// configuration: one-layer logging, no-force policy, Batch log, 1,000
// record buckets, groups of 8, 150ns NVM write latency.
type Options struct {
	// ArenaSize is the initial NVM arena size in bytes (default 256 MiB).
	ArenaSize int
	// MaxArena, when larger than ArenaSize, lets the arena grow on demand:
	// an allocation that exhausts the heap extends the address space by
	// GrowStep (crash-safely — a torn grow reverts) instead of failing,
	// until MaxArena is reached. Zero or <= ArenaSize disables growth,
	// preserving the fixed-arena behavior.
	MaxArena int
	// GrowStep is the growth increment in bytes (default ArenaSize, i.e.
	// doubling-style growth). Only meaningful with MaxArena set.
	GrowStep int
	// Policy selects Force or NoForce (default NoForce).
	Policy Policy
	// Layers selects OneLayer or TwoLayer (default OneLayer).
	Layers Layers
	// LogKind selects Simple, Optimized or Batch (default Batch).
	// TwoLayer requires Simple or Optimized.
	LogKind LogKind
	// CommitMode selects UndoRedo or RedoOnly (default UndoRedo).
	// RedoOnly requires OneLayer.
	CommitMode CommitMode
	// BucketSize is the records-per-bucket count (default 1,000).
	BucketSize int
	// GroupSize is the records-per-fence group in Batch mode (default 8).
	GroupSize int
	// LogShards stripes the one-layer log over this many independent
	// shard logs (default 1, the paper's single global log). Transactions
	// are hashed to a shard by id and commits on different shards never
	// contend, which is what multi-goroutine commit throughput scales
	// with; see core.Config.LogShards. TwoLayer requires LogShards <= 1.
	LogShards int
	// GroupCommit merges commits into shared log flushes: publishing a
	// commit (Tx.Publish, or the first half of Commit/Atomic) appends its
	// END record and hands back a Ticket; WaitDurable finds the ticket
	// already covered by somebody's flush or joins/leads a round that
	// issues one flush + fence for every commit published by then. Commit
	// still returns only after the flush covering its END record, so
	// acknowledged commits survive crashes exactly as before — the fence
	// bill is just split, across goroutines and across one goroutine's
	// unwaited tickets alike. Requires the default OneLayer + Batch +
	// NoForce configuration; see core.Config.GroupCommit.
	GroupCommit bool
	// GroupCommitWindow bounds a round leader's wait for more waiters
	// (default 100µs; negative skips the wait, batching only what is
	// published by the time the leader holds the shard). The leader sleeps
	// it only when every commit the round covers has its own waiter — the
	// many-callers, one-commit-each shape — and another waiter, a
	// transaction mid-flight or the previous round's company says more are
	// coming; a lone commit, or a caller waiting on a pipelined burst,
	// flushes at once. See core.Config.GroupCommitWindow.
	GroupCommitWindow time.Duration
	// GroupCommitMax closes a round early at this many waiters (default 64).
	GroupCommitMax int
	// RecoveryWorkers is the number of goroutines the recovery pass at Open
	// uses for its per-shard analysis and redo phases (non-positive: one
	// per CPU, capped at LogShards). Recovery's outcome is byte-identical
	// at any worker count; the knob trades restart latency for CPU. See
	// core.Config.RecoveryWorkers.
	RecoveryWorkers int
	// WriteLatency and FenceLatency configure the simulated device
	// (defaults: 150ns and 100ns). ReadLatency is charged per word load
	// when non-zero (default zero, per the paper's read-cost assumption).
	WriteLatency time.Duration
	FenceLatency time.Duration
	ReadLatency  time.Duration
	// EmulateLatency busy-waits to make wall-clock time track the
	// simulated device, as in the paper's testbed.
	EmulateLatency bool
	// DisableTracking turns off the durable shadow image. Crash and
	// SaveImage become unavailable; throughput improves. Benchmarks use
	// this; applications that want crash simulation must not.
	DisableTracking bool
	// ImagePath, when set, makes Open load a previously saved durable
	// image from this file (if it exists) and Close save one, giving
	// cross-process durability.
	ImagePath string
	// Obs, when non-nil, turns on commit-pipeline phase timing: every
	// commit records its latch-wait, log-append, group-commit-gather,
	// flush+fence and publish times (wall clock and virtual device
	// clock) into the obs histograms. Volatile — not part of the durable
	// shape — and free when nil. The same *obs.Obs is normally shared
	// with the kv and server layers so one registry carries the whole
	// stack (see Store.RegisterMetrics).
	Obs *obs.Obs
	// BackingFile, when set, maps the durable image onto this file for
	// the store's whole lifetime: every durable operation lands in the
	// OS page cache immediately, so even a SIGKILLed process loses
	// nothing it acknowledged — the continuous-durability mode rewindd
	// runs on, stronger than ImagePath's save-at-Close. Reopening an
	// existing backing file runs recovery. Mutually exclusive with
	// ImagePath and with DisableTracking.
	BackingFile string
}

func (o Options) withDefaults() Options {
	if o.ArenaSize <= 0 {
		o.ArenaSize = 256 << 20
	}
	if o.MaxArena < o.ArenaSize {
		o.MaxArena = o.ArenaSize
	}
	if o.GrowStep <= 0 {
		o.GrowStep = o.ArenaSize
	}
	if o.LogKind == 0 && o.Layers == TwoLayer {
		o.LogKind = Optimized
	} else if o.LogKind == 0 {
		o.LogKind = Batch
	}
	return o
}

// Store is an open REWIND store: a simulated NVM arena, a persistent
// allocator, and a transaction recovery manager. All methods are safe for
// concurrent use; concurrency control over user data is the caller's
// responsibility, as in the paper (§4.7).
type Store struct {
	opts  Options
	mem   *nvm.Memory
	alloc *pmem.Allocator
	tm    *core.TM

	mu     sync.Mutex
	extra  int // root base consumed by additional managers
	closed bool

	// Recovery reports what the recovery pass at Open found.
	Recovery core.RecoveryStats
}

// rootBase for the primary manager; further managers stack above it.
const primaryRootBase = 8

// Reserved root slots applications may use for their own structures.
const (
	// AppRootFirst..AppRootLast are root slots never touched by REWIND;
	// applications store the entry points of their persistent data
	// structures there (e.g. a B+-tree header). Slots below AppRootFirst
	// belong to transaction managers: the primary at 8 and additional
	// managers (NewTM) above it — up to eleven at the default shard
	// count, fewer when Options.LogShards widens each manager's slot
	// footprint (core.Config.Slots).
	AppRootFirst = 56
	AppRootLast  = 63
)

var errClosed = errors.New("rewind: store is closed")

// Open creates a store, or reattaches to one when Options.ImagePath names
// an existing image — in which case recovery (§4.5) runs and its outcome is
// available in Store.Recovery.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.BackingFile != "" {
		if opts.ImagePath != "" {
			return nil, errors.New("rewind: BackingFile and ImagePath are mutually exclusive")
		}
		if opts.DisableTracking {
			return nil, errors.New("rewind: BackingFile requires persistence tracking")
		}
		return openBacked(opts)
	}
	mem := nvm.New(nvm.Config{
		Size:             opts.ArenaSize,
		MaxSize:          opts.MaxArena,
		WriteLatency:     opts.WriteLatency,
		FenceLatency:     opts.FenceLatency,
		ReadLatency:      opts.ReadLatency,
		EmulateLatency:   opts.EmulateLatency,
		TrackPersistence: !opts.DisableTracking,
	})
	if opts.ImagePath != "" {
		if img, err := os.ReadFile(opts.ImagePath); err == nil {
			if err := mem.LoadImage(img); err != nil {
				return nil, fmt.Errorf("rewind: loading image %s: %w", opts.ImagePath, err)
			}
			return attach(opts, mem)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	alloc := pmem.Format(mem)
	tm, err := core.New(alloc, coreConfig(opts, primaryRootBase))
	if err != nil {
		return nil, err
	}
	return newStore(opts, mem, alloc, tm, nil), nil
}

// newStore finishes construction. The growth policy is volatile allocator
// state, so every open/attach path re-arms it here from the device's
// actual headroom.
func newStore(opts Options, mem *nvm.Memory, alloc *pmem.Allocator, tm *core.TM, rs *core.RecoveryStats) *Store {
	if mem.MaxSize() > mem.Size() {
		alloc.SetGrowth(opts.GrowStep)
	}
	s := &Store{opts: opts, mem: mem, alloc: alloc, tm: tm}
	if rs != nil {
		s.Recovery = *rs
	}
	return s
}

// openBacked opens a store whose durable image lives in an mmapped file.
// A file holding a formatted heap with a manager is attached with
// recovery; anything less (fresh file, or a process killed inside the very
// first format — before anything could have been acknowledged) is
// formatted from scratch.
func openBacked(opts Options) (s *Store, err error) {
	mem, existed, err := nvm.OpenFile(nvm.Config{
		Size:           opts.ArenaSize,
		MaxSize:        opts.MaxArena,
		WriteLatency:   opts.WriteLatency,
		FenceLatency:   opts.FenceLatency,
		ReadLatency:    opts.ReadLatency,
		EmulateLatency: opts.EmulateLatency,
	}, opts.BackingFile)
	if err != nil {
		return nil, err
	}
	// Release the mapping and its file lock on any failure below, so a
	// misconfigured Open (e.g. fingerprint mismatch) can be retried in
	// the same process with corrected options.
	defer func() {
		if err != nil {
			mem.CloseFile()
		}
	}()
	if existed {
		if alloc, perr := pmem.Open(mem); perr == nil {
			if alloc.Root(primaryRootBase) != nvm.Null {
				tm, rs, err := core.Open(alloc, coreConfig(opts, primaryRootBase))
				if err != nil {
					return nil, err
				}
				return newStore(opts, mem, alloc, tm, rs), nil
			}
			// Heap formatted but no manager yet: died inside first boot.
			tm, err := core.New(alloc, coreConfig(opts, primaryRootBase))
			if err != nil {
				return nil, err
			}
			return newStore(opts, mem, alloc, tm, nil), nil
		} else if !errors.Is(perr, pmem.ErrNotFormatted) {
			return nil, perr
		}
	}
	alloc := pmem.Format(mem)
	tm, err := core.New(alloc, coreConfig(opts, primaryRootBase))
	if err != nil {
		return nil, err
	}
	return newStore(opts, mem, alloc, tm, nil), nil
}

// Reattach opens a store over an existing arena (used after Crash and by
// tests that manage the arena themselves). Recovery runs.
func Reattach(opts Options, mem *nvm.Memory) (*Store, error) {
	return attach(opts.withDefaults(), mem)
}

func attach(opts Options, mem *nvm.Memory) (*Store, error) {
	alloc, err := pmem.Open(mem)
	if err != nil {
		return nil, err
	}
	tm, rs, err := core.Open(alloc, coreConfig(opts, primaryRootBase))
	if err != nil {
		return nil, err
	}
	return newStore(opts, mem, alloc, tm, rs), nil
}

func coreConfig(opts Options, rootBase int) core.Config {
	return core.Config{
		Policy: opts.Policy, Layers: opts.Layers, LogKind: opts.LogKind,
		CommitMode: opts.CommitMode,
		BucketSize: opts.BucketSize, GroupSize: opts.GroupSize,
		LogShards: opts.LogShards, RootBase: rootBase,
		GroupCommit:       opts.GroupCommit,
		GroupCommitWindow: opts.GroupCommitWindow,
		GroupCommitMax:    opts.GroupCommitMax,
		RecoveryWorkers:   opts.RecoveryWorkers,
		Obs:               opts.Obs,
	}
}

// Options returns the options the store was opened with.
func (s *Store) Options() Options { return s.opts }

// Mem exposes the simulated NVM device (stats, crash injection).
func (s *Store) Mem() *nvm.Memory { return s.mem }

// Allocator exposes the persistent allocator.
func (s *Store) Allocator() *pmem.Allocator { return s.alloc }

// TM exposes the primary transaction manager.
func (s *Store) TM() *core.TM { return s.tm }

// Alloc allocates a persistent block of at least size bytes outside any
// transaction (see Tx.Alloc for the transactional pattern).
func (s *Store) Alloc(size int) uint64 { return s.alloc.Alloc(size) }

// Root returns application root slot i (AppRootFirst..AppRootLast).
func (s *Store) Root(i int) uint64 { return s.alloc.Root(i) }

// SetRoot durably publishes addr in application root slot i.
func (s *Store) SetRoot(i int, addr uint64) { s.alloc.SetRoot(i, addr) }

// Read64 loads a word without any transaction.
func (s *Store) Read64(addr uint64) uint64 { return s.mem.Load64(addr) }

// ReadBytes reads n bytes at addr.
func (s *Store) ReadBytes(addr uint64, n int) []byte { return s.tm.ReadBytes(addr, n) }

// Checkpoint trims the log under the no-force policy (§4.6) with the
// default pause budget; it is a no-op under force, whose commits clear
// their own records.
func (s *Store) Checkpoint() { s.tm.Checkpoint() }

// CheckpointPaced runs an incremental checkpoint whose freezes flush at
// most budgetLines cache lines each, so the stall any committing
// transaction observes is bounded by the budget rather than the whole
// dirty cache (0 uses the default budget, negative disables pacing — the
// paper's freeze-all). It returns the pacing report.
func (s *Store) CheckpointPaced(budgetLines int) core.CheckpointStats {
	return s.tm.CheckpointPaced(budgetLines)
}

// LastCheckpoint returns the most recent checkpoint's pacing report.
func (s *Store) LastCheckpoint() core.CheckpointStats { return s.tm.LastCheckpoint() }

// Stats returns the simulated device counters.
func (s *Store) Stats() nvm.Stats { return s.mem.Stats() }

// ArenaInfo is a snapshot of the arena's capacity state: how far it has
// grown, how much of the heap is live versus high-water, and what the
// backing file actually costs on disk after hole punching.
type ArenaInfo struct {
	// Size is the current (possibly grown) arena size; MaxSize the growth
	// cap. Equal when growth is disabled.
	Size, MaxSize int
	// Grows counts successful growth events this session; Segments counts
	// heap segments (base + durable extents).
	Grows, Segments int
	// HeapUsed is the bump high-water mark; HeapLive the bytes in
	// currently allocated blocks — the gap is dead or reusable space.
	HeapUsed, HeapLive int
	// PunchedBytes counts bytes hole-punched back to the OS this session.
	// AllocatedBytes is the backing file's actual on-disk footprint (the
	// arena size when heap-backed).
	PunchedBytes   uint64
	AllocatedBytes int64
}

// ArenaInfo returns a snapshot of arena capacity, growth, and reclamation
// state.
func (s *Store) ArenaInfo() ArenaInfo {
	ab, _ := s.mem.AllocatedBytes()
	return ArenaInfo{
		Size:           s.mem.Size(),
		MaxSize:        s.mem.MaxSize(),
		Grows:          int(s.mem.GrowCount()),
		Segments:       len(s.mem.Extents()) + 1,
		HeapUsed:       s.alloc.HeapUsed(),
		HeapLive:       s.alloc.HeapLive(),
		PunchedBytes:   s.mem.PunchedBytes(),
		AllocatedBytes: ab,
	}
}

// Sync flushes the mmapped backing file to stable storage (msync); a
// no-op for heap-backed stores. rewindd calls this on a -sync-every
// cadence for an extra physical-durability bound on top of the page
// cache.
func (s *Store) Sync() error { return s.mem.Sync() }

// SimNS reads the device's virtual clock: the total simulated latency
// charged so far, in nanoseconds. One atomic load; the observability
// layer samples it around operations to attribute device time.
func (s *Store) SimNS() int64 { return s.mem.SimNS() }

// TMStats returns transaction manager activity counters, including the
// per-shard breakdown in Stats.Shards (appends, group flushes, commits and
// contention-free commits per log shard).
func (s *Store) TMStats() core.Stats { return s.tm.Stats() }

// ShardStats returns the per-shard activity counters alone — the shard
// balance and contention view the scaling benchmark reports.
func (s *Store) ShardStats() []core.ShardStats { return s.tm.Stats().Shards }

// LogBytes returns the cumulative record payload appended to the log across
// all shards — the device-independent log-volume figure the commit modes are
// compared on (redo-only appends roughly half of undo/redo's).
func (s *Store) LogBytes() int64 { return s.tm.Stats().LogBytes }

// Crash simulates a power failure and reattaches with full recovery,
// returning the recovered store. The receiver must not be used afterwards.
func (s *Store) Crash() (*Store, error) {
	if err := s.mem.Crash(); err != nil {
		return nil, err
	}
	return attach(s.opts, s.mem)
}

// SaveImage writes the durable image to path (or Options.ImagePath when
// path is empty).
func (s *Store) SaveImage(path string) error {
	if path == "" {
		path = s.opts.ImagePath
	}
	if path == "" {
		return errors.New("rewind: no image path")
	}
	img, err := s.mem.PersistentImage()
	if err != nil {
		return err
	}
	return os.WriteFile(path, img, 0o644)
}

// Close performs a clean shutdown: under no-force it checkpoints and
// flushes; when Options.ImagePath is set the durable image is saved.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.tm.Close()
	if s.opts.ImagePath != "" {
		return s.SaveImage("")
	}
	if s.opts.BackingFile != "" {
		// Sync the mapped image through to storage (process-death safety
		// never needed this; machine-death safety does) and release the
		// mapping. The store must not be used after Close.
		return s.mem.CloseFile()
	}
	return nil
}

// NewTM creates an additional transaction manager with its own log over the
// same arena — the distributed-logging configuration of §5.3 (one manager
// per worker means one log per worker). Its root slots stack above the
// primary manager's. If the slot range already holds a manager (the store
// was reattached after a crash), the existing manager is reopened and
// recovered instead, so every distributed log recovers independently.
func (s *Store) NewTM() (*core.TM, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := coreConfig(s.opts, primaryRootBase).Slots()
	base := primaryRootBase + (s.extra+1)*slots
	if base+slots > AppRootFirst {
		return nil, errors.New("rewind: no root slots left for another manager")
	}
	cfg := coreConfig(s.opts, base)
	var tm *core.TM
	var err error
	if s.alloc.Root(base) != 0 {
		tm, _, err = core.Open(s.alloc, cfg)
	} else {
		tm, err = core.New(s.alloc, cfg)
	}
	if err != nil {
		return nil, err
	}
	s.extra++
	return tm, nil
}
