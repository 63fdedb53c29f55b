package pmem

import (
	"errors"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
)

// TestFirstFitSplit: a freed large block serves a smaller large request,
// with the remainder returned as an allocatable free block — the
// fragmentation fix (previously only exact total matches were reused).
func TestFirstFitSplit(t *testing.T) {
	_, a := newHeap(t)
	big := a.Alloc(20 << 10) // 20 KiB payload -> large block
	bumpAfterBig := a.HeapUsed()
	a.Free(big)
	small := a.Alloc(17 << 10) // previously missed the 20 KiB block
	if small != big {
		t.Fatalf("first fit: got %#x, want the freed block %#x", small, big)
	}
	if a.HeapUsed() != bumpAfterBig {
		t.Fatalf("bump advanced on a first-fit hit: %d -> %d", bumpAfterBig, a.HeapUsed())
	}
	// The remainder is a real free block: it parses in the heap walk and
	// can be allocated.
	if err := a.CheckHeap(); err != nil {
		t.Fatal(err)
	}
	remTotal := align(20<<10+headerSize, 4096) - align(17<<10+headerSize, 4096)
	if remTotal <= 0 {
		t.Skip("sizes chose no remainder")
	}
	rem := a.Alloc(remTotal - headerSize)
	if rem != small+uint64(align(17<<10+headerSize, 4096)) {
		t.Fatalf("remainder not served in place: got %#x", rem)
	}
	if a.HeapUsed() != bumpAfterBig {
		t.Fatal("bump advanced allocating the remainder")
	}
	if err := a.CheckHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowOnExhaustion: with a growth policy set, TryAlloc grows the arena
// instead of failing, and only reports ErrOutOfMemory at the cap.
func TestGrowOnExhaustion(t *testing.T) {
	m := nvm.New(nvm.Config{Size: 1 << 20, MaxSize: 4 << 20, TrackPersistence: true})
	a := Format(m)
	a.SetGrowth(1 << 20)
	var n int
	for {
		if _, err := a.TryAlloc(16 << 10); err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	if m.Size() != 4<<20 {
		t.Fatalf("arena size %d at exhaustion, want cap %d", m.Size(), 4<<20)
	}
	if m.GrowCount() == 0 {
		t.Fatal("no grows recorded")
	}
	// Nearly the whole cap must have been served (no failure below cap).
	if served := a.HeapUsed(); served < 3<<20 {
		t.Fatalf("only %d bytes served before ErrOutOfMemory", served)
	}
	if len(a.Segments()) != len(m.Extents())+1 {
		t.Fatalf("segment table out of sync: %d segs, %d extents", len(a.Segments()), len(m.Extents()))
	}
	if err := a.CheckHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyAccounting: live/freed counters track allocs and frees and
// a reopen rebuilds identical numbers from the heap walk.
func TestOccupancyAccounting(t *testing.T) {
	m := nvm.New(nvm.Config{Size: 4 << 20, TrackPersistence: true})
	a := Format(m)
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addrs = append(addrs, a.Alloc(1000))
	}
	for _, addr := range addrs[:16] {
		a.Free(addr)
	}
	total := align(1000+headerSize, nvm.LineSize)
	if c := classFor(total); c >= 0 {
		total = classTotals[c]
	}
	segs := a.Segments()
	if len(segs) != 1 {
		t.Fatalf("ungrown heap has %d segments", len(segs))
	}
	wantLive, wantFreed := int64(16*total), int64(16*total)
	if segs[0].Live != wantLive || segs[0].Freed != wantFreed {
		t.Fatalf("occupancy live=%d freed=%d, want %d/%d", segs[0].Live, segs[0].Freed, wantLive, wantFreed)
	}
	if got := a.HeapLive(); got != int(wantLive) {
		t.Fatalf("HeapLive %d, want %d", got, wantLive)
	}
	if used := a.HeapUsed(); used <= int(wantLive) {
		t.Fatalf("HeapUsed %d should exceed live %d (it includes freed)", used, wantLive)
	}
	// Reopen: the walk must rebuild the same counters.
	a2, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	segs2 := a2.Segments()
	if segs2[0].Live != wantLive || segs2[0].Freed != wantFreed {
		t.Fatalf("rebuilt occupancy live=%d freed=%d, want %d/%d", segs2[0].Live, segs2[0].Freed, wantLive, wantFreed)
	}
}

// TestReclaimMergesAndServes: Reclaim coalesces a dead range into one free
// block, the heap stays walkable, and the merged space is re-allocatable.
func TestReclaimMergesAndServes(t *testing.T) {
	_, a := newHeap(t)
	var addrs []uint64
	for i := 0; i < 64; i++ {
		addrs = append(addrs, a.Alloc(4000))
	}
	keep := a.Alloc(64)
	for _, addr := range addrs {
		a.Free(addr)
	}
	lo, hi := addrs[0]-headerSize, uint64(HeapBase+a.HeapUsed())
	released, err := a.Reclaim(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if released <= 0 {
		t.Fatal("nothing released") // heap-backed: PunchHole zeroes, still counted
	}
	if err := a.CheckHeap(); err != nil {
		t.Fatal(err)
	}
	if a.IsFree(keep) {
		t.Fatal("live block inside reclaimed range was disturbed")
	}
	// The merged block serves a large allocation without advancing bump.
	used := a.HeapUsed()
	big := a.Alloc(100 << 10)
	if a.HeapUsed() != used {
		t.Fatal("bump advanced; merged block not reused")
	}
	if big < lo || big >= hi {
		t.Fatalf("large alloc %#x not inside reclaimed range", big)
	}
	if err := a.CheckHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimFenceBlocksAllocation: while a range is fenced for
// compaction, its free blocks are never served; clearing the fence makes
// them allocatable again.
func TestReclaimFenceBlocksAllocation(t *testing.T) {
	_, a := newHeap(t)
	addr := a.Alloc(64)
	a.Free(addr)
	a.SetReclaiming(addr-headerSize, addr-headerSize+64)
	again := a.Alloc(64)
	if again == addr {
		t.Fatal("fenced block served")
	}
	a.SetReclaiming(0, 0)
	if got := a.Alloc(64); got != addr {
		t.Fatalf("after clearing the fence: got %#x, want %#x", got, addr)
	}
}
