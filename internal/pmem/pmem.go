// Package pmem provides a persistent memory allocator over the simulated
// NVM arena, plus a small set of named persistent roots.
//
// REWIND (PVLDB 8(5), 2015) assumes an NVM-aware allocator in the style of
// NV-heaps/Mnemosyne and focuses its crash-safety machinery on
// *deallocation* (DELETE log records, §4.3). This allocator follows the same
// contract:
//
//   - Allocation is crash-safe in the sense that a crash can never corrupt
//     allocator metadata or hand the same block out twice; at worst a block
//     is leaked (allocated but unreachable), exactly the failure mode the
//     paper accepts and defers to NV-heap-style allocators.
//   - Free is idempotent: freeing an already-free block is a no-op. That is
//     what makes replaying a committed transaction's DELETE record safe when
//     the system crashed between the actual deallocation and the removal of
//     the record.
//
// Blocks carry an 8-byte header word (payload size and a freed bit) and are
// served from per-size-class free lists backed by a bump region. All
// metadata updates use non-temporal (synchronously durable) stores, ordered
// so that every crash point leaves the heap consistent.
package pmem

import (
	"errors"
	"fmt"
	"sync"

	"github.com/rewind-db/rewind/internal/nvm"
)

// Arena layout constants. Word 0 is reserved so that address 0 is NULL.
const (
	offMagic   = 8
	offVersion = 16
	offSize    = 24
	offBump    = 32
	offClasses = 64 // free-list heads: one word per class + one for large
	rootBase   = 512
	// NumRoots is the number of named persistent root slots. Subsystems
	// claim slots by convention (see the root registry in package core).
	NumRoots = 64
	// HeapBase is where allocatable memory starts.
	HeapBase = rootBase + NumRoots*8

	magic   = 0x31444e4957455250 // "PREWIND1"
	version = 1

	headerSize = 8
	freedBit   = 1 // low bit of the header word marks a free block
)

// classTotals are the block sizes (header + payload) served by the
// segregated free lists. Larger requests go to the large list.
//
// Every class is a multiple of the cache-line size and the heap base is
// line-aligned, so every block owns its cache lines exclusively. This is
// load-bearing for WAL correctness: REWIND flushes freshly created log
// records, list nodes and buckets to NVM while user updates are still
// volatile, and a flush persists whole lines — if metadata shared a line
// with user data, the flush would persist uncommitted user writes ahead of
// their log records. Line-isolated blocks make that impossible, mirroring
// how a native implementation segregates its log arena from user data
// (paper §2: "This separates data from the log").
//
// The one place lines are shared is INSIDE a block: the record area of an
// rlog Batch bucket packs log records 8-byte aligned. That is safe because
// the block holds nothing but log data, and a record is reachable only
// through a bucket cell published after its own flush — a flush of a shared
// line can persist early nothing but bytes nobody can reach yet.
var classTotals = []int{
	64, 128, 192, 256, 384, 512, 768,
	1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
}

// ErrOutOfMemory is the panic value raised when the arena is exhausted.
var ErrOutOfMemory = errors.New("pmem: arena exhausted")

// ErrNotFormatted is returned by Open when the arena has no valid heap.
var ErrNotFormatted = errors.New("pmem: arena not formatted")

// Allocator manages the heap portion of an NVM arena. It is safe for
// concurrent use.
type Allocator struct {
	mem *nvm.Memory
	mu  sync.Mutex

	// growStep is the number of bytes each arena growth requests; 0
	// disables growth (the historical fixed-size behaviour). Set via
	// SetGrowth.
	growStep int
	// segs is the volatile per-segment occupancy table (base segment plus
	// one entry per extent), rebuilt from a heap walk at Open. Guarded by mu.
	segs []segment
	// reclLo/reclHi fence off a half-open address range being compacted:
	// the allocator never serves a free block inside it. Guarded by mu.
	reclLo, reclHi uint64
}

// segment is one contiguous piece of the heap with occupancy counters.
// live+freed converge on the bytes the bump pointer has passed through the
// segment; the counters are volatile and rebuilt by a heap walk at Open, so
// a crash can at worst skew them until the next reopen (they only steer
// compaction policy, never correctness).
type segment struct {
	start, end  uint64
	live, freed int64
	// reclaimed tracks freed bytes a Reclaim pass has already coalesced
	// and punched, so compaction policy can tell fresh garbage from dead
	// space that was dealt with. Clamped to freed; reset on reopen (one
	// redundant compaction after restart at worst).
	reclaimed int64
}

// Format initializes a fresh heap on the arena, destroying any prior
// contents of the metadata region, and returns the allocator.
func Format(m *nvm.Memory) *Allocator {
	a := &Allocator{mem: m}
	m.StoreNT64(offBump, HeapBase)
	for c := 0; c <= len(classTotals); c++ {
		m.StoreNT64(offClasses+uint64(c)*8, nvm.Null)
	}
	for i := 0; i < NumRoots; i++ {
		m.StoreNT64(rootBase+uint64(i)*8, nvm.Null)
	}
	m.StoreNT64(offSize, uint64(m.Size()))
	m.StoreNT64(offVersion, version)
	m.Fence()
	// The magic word is written last: a crash during Format leaves an
	// arena that Open rejects rather than a half-initialized heap.
	m.StoreNT64(offMagic, magic)
	m.Fence()
	a.initSegments()
	return a
}

// Open attaches to a previously formatted heap (e.g. after a crash or an
// image restore) and rebuilds the per-segment occupancy table from a heap
// walk.
func Open(m *nvm.Memory) (*Allocator, error) {
	if m.Load64(offMagic) != magic {
		return nil, ErrNotFormatted
	}
	if v := m.Load64(offVersion); v != version {
		return nil, fmt.Errorf("pmem: heap version %d, want %d", v, version)
	}
	if s := m.Load64(offSize); s > uint64(m.Size()) {
		return nil, fmt.Errorf("pmem: heap formatted for %d bytes, arena has %d", s, m.Size())
	}
	a := &Allocator{mem: m}
	a.initSegments()
	if err := a.rebuildOccupancy(); err != nil {
		return nil, err
	}
	return a, nil
}

// Mem returns the underlying NVM device.
func (a *Allocator) Mem() *nvm.Memory { return a.mem }

// classFor returns the class index for a total block size, or -1 for large.
func classFor(total int) int {
	for c, ct := range classTotals {
		if total <= ct {
			return c
		}
	}
	return -1
}

func align(n, to int) int { return (n + to - 1) / to * to }

// Alloc returns the address of a block with at least size payload bytes.
// The payload is NOT zeroed (blocks recycled from free lists carry stale
// data); callers that rely on zero contents must clear it. Alloc panics
// with ErrOutOfMemory when the arena is exhausted.
func (a *Allocator) Alloc(size int) uint64 {
	addr, err := a.TryAlloc(size)
	if err != nil {
		panic(err)
	}
	return addr
}

// TryAlloc is Alloc returning an error instead of panicking on exhaustion.
// When a growth policy is configured (SetGrowth), bump exhaustion grows the
// arena instead of failing; ErrOutOfMemory is only returned once the arena
// has reached its configured cap.
func (a *Allocator) TryAlloc(size int) (uint64, error) {
	if size <= 0 {
		return nvm.Null, fmt.Errorf("pmem: invalid allocation size %d", size)
	}
	total := align(size+headerSize, nvm.LineSize)
	c := classFor(total)
	if c >= 0 {
		total = classTotals[c]
	} else {
		total = align(total, 4096)
	}

	a.mu.Lock()
	defer a.mu.Unlock()

	if addr := a.popFree(c, total); addr != nvm.Null {
		return addr, nil
	}

	// Bump allocation. Ordering: block header first, then the bump
	// pointer. A crash in between leaves the header in space that is
	// still unallocated, which the next bump write simply overwrites.
	bump := a.mem.Load64(offBump)
	for bump+uint64(total) > uint64(a.mem.Size()) {
		if a.growStep <= 0 {
			return nvm.Null, ErrOutOfMemory
		}
		want := total
		if want < a.growStep {
			want = a.growStep
		}
		if _, err := a.mem.Grow(want); err != nil {
			if errors.Is(err, nvm.ErrArenaCap) {
				return nvm.Null, ErrOutOfMemory
			}
			return nvm.Null, fmt.Errorf("pmem: growing arena: %w", err)
		}
		// Track the new extent and the heap's formatted size. A crash
		// between the grow and this store leaves offSize stale-small,
		// which Open tolerates (it only rejects heaps larger than the
		// arena).
		a.syncSegments()
		a.mem.StoreNT64(offSize, uint64(a.mem.Size()))
	}
	a.mem.StoreNT64(bump, uint64(total-headerSize)<<1)
	a.mem.StoreNT64(offBump, bump+uint64(total))
	a.noteAlloc(bump, total, false)
	return bump + headerSize, nil
}

// SetGrowth configures the arena growth policy: each bump exhaustion grows
// the arena by at least step bytes (clamped to the device's MaxSize).
// step <= 0 disables growth. Safe to call at any time.
func (a *Allocator) SetGrowth(step int) {
	a.mu.Lock()
	a.growStep = step
	a.mu.Unlock()
}

// popFree pops a block from the class free list (or, for large blocks, the
// first block on the large list with total >= the request, splitting off
// the remainder). Returns Null when empty. Blocks inside the reclaiming
// fence are skipped so compaction never races an allocation into the range
// it is emptying.
func (a *Allocator) popFree(c, total int) uint64 {
	headSlot := a.freeSlot(c)
	prev := headSlot
	cur := a.mem.Load64(headSlot)
	for cur != nvm.Null {
		if a.inReclaimRange(cur-headerSize, a.blockTotal(cur)) {
			prev = cur
			cur = a.mem.Load64(cur)
			continue
		}
		if c >= 0 {
			// Class lists hold exact-size blocks by construction.
			next := a.mem.Load64(cur) // free blocks store the next pointer in payload word 0
			// Unlink first, then clear the freed bit. A crash in
			// between leaks the block but can never double-serve it.
			a.mem.StoreNT64(prev, next)
			a.mem.StoreNT64(cur-headerSize, uint64(total-headerSize)<<1)
			a.noteAlloc(cur-headerSize, total, true)
			return cur
		}
		// Large list: first fit with at least the requested total.
		if bt := a.blockTotal(cur); bt >= total {
			a.splitAndServe(prev, cur, bt, total)
			return cur
		}
		prev = cur
		cur = a.mem.Load64(cur)
	}
	return nvm.Null
}

// splitAndServe unlinks the free block at payload address cur (total size
// bt) from the large list via prev, serves its first `total` bytes, and
// returns the remainder (if any) to the free list owning its size. The
// write order makes every crash point safe:
//
//  1. remainder header (freed) inside what is still the free block's
//     payload — invisible to the heap walk until step 3, garbage inside
//     free space before that;
//  2. unlink the block — a crash leaks it whole, still consistent;
//  3. shrink the served header to `total` (allocated) — from here the walk
//     sees [served | free remainder]; the remainder is unreachable (leaked)
//     until step 4 but already consistent;
//  4. publish the remainder on its free list.
//
// No order admits double-serving: the remainder only becomes allocatable
// after the served block's header no longer covers it.
func (a *Allocator) splitAndServe(prev, cur uint64, bt, total int) {
	rem := bt - total
	if rem > 0 {
		a.mem.StoreNT64(cur-headerSize+uint64(total), uint64(rem-headerSize)<<1|freedBit)
	}
	next := a.mem.Load64(cur)
	a.mem.StoreNT64(prev, next)
	a.mem.StoreNT64(cur-headerSize, uint64(total-headerSize)<<1)
	a.noteAlloc(cur-headerSize, total, true)
	// The remainder was accounted as part of the original freed block;
	// re-book the served part only (noteAlloc above moved `total` from
	// freed to live, which is exactly right — the remainder stays freed).
	if rem > 0 {
		remPayload := cur + uint64(total)
		remSlot := a.slotForTotal(rem)
		a.mem.StoreNT64(remPayload, a.mem.Load64(remSlot))
		a.mem.StoreNT64(remSlot, remPayload)
	}
}

// freeSlot returns the head-pointer address of free list c (the large list
// for c < 0).
func (a *Allocator) freeSlot(c int) uint64 {
	if c < 0 {
		c = len(classTotals)
	}
	return offClasses + uint64(c)*8
}

// slotForTotal routes a block of the given total size to a free-list head.
// Only an exact class-size match may use a class list — class pops assume
// exact sizes — so split remainders of odd sizes go to the large list.
func (a *Allocator) slotForTotal(total int) uint64 {
	if c := classFor(total); c >= 0 && classTotals[c] == total {
		return a.freeSlot(c)
	}
	return a.freeSlot(-1)
}

// inReclaimRange reports whether the block [hdrAddr, hdrAddr+total)
// overlaps the fenced-off compaction range.
func (a *Allocator) inReclaimRange(hdrAddr uint64, total int) bool {
	return a.reclHi > a.reclLo &&
		hdrAddr < a.reclHi && hdrAddr+uint64(total) > a.reclLo
}

func (a *Allocator) blockTotal(addr uint64) int {
	return int(a.mem.Load64(addr-headerSize)>>1) + headerSize
}

// BlockSize returns the payload capacity of an allocated block.
func (a *Allocator) BlockSize(addr uint64) int {
	return int(a.mem.Load64(addr-headerSize) >> 1)
}

// Free returns a block to its free list. Freeing an already-free block is a
// no-op, which makes replay of DELETE log records after a crash safe. The
// write order (next pointer, freed bit, list head) guarantees a crash at any
// point either leaves the block allocated, or marked free but leaked — never
// reachable twice.
func (a *Allocator) Free(addr uint64) {
	if addr == nvm.Null {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	hdr := a.mem.Load64(addr - headerSize)
	if hdr&freedBit != 0 {
		return // idempotent: already free
	}
	total := int(hdr>>1) + headerSize
	headSlot := a.slotForTotal(total)

	a.mem.StoreNT64(addr, a.mem.Load64(headSlot))  // next pointer
	a.mem.StoreNT64(addr-headerSize, hdr|freedBit) // mark free (replay barrier)
	a.mem.StoreNT64(headSlot, addr)                // publish
	a.noteFree(addr-headerSize, total)
}

// IsFree reports whether the block is currently marked free. It exists for
// tests and for DELETE-record replay diagnostics.
func (a *Allocator) IsFree(addr uint64) bool {
	return a.mem.Load64(addr-headerSize)&freedBit != 0
}

// Root returns the value of persistent root slot i.
func (a *Allocator) Root(i int) uint64 {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root index %d out of range", i))
	}
	return a.mem.Load64(rootBase + uint64(i)*8)
}

// SetRoot durably stores addr into root slot i.
func (a *Allocator) SetRoot(i int, addr uint64) {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root index %d out of range", i))
	}
	a.mem.StoreNT64(rootBase+uint64(i)*8, addr)
	a.mem.Fence()
}

// HeapUsed returns the number of bytes between the heap base and the bump
// pointer: the high-water mark of heap consumption. Freed blocks are NOT
// subtracted — use HeapLive for the actually-live byte count.
func (a *Allocator) HeapUsed() int {
	return int(a.mem.Load64(offBump)) - HeapBase
}

// HeapLive returns the number of bytes in currently allocated blocks
// (headers included), backed by the per-segment occupancy accounting. This
// is the number HeapUsed historically over-reported: freed blocks are
// excluded here.
func (a *Allocator) HeapLive() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	var live int64
	for i := range a.segs {
		live += a.segs[i].live
	}
	return int(live)
}
