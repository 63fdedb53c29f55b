package pmem_test

import (
	"fmt"
	"testing"

	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

// heapCase is a crash case over the heap alone: setup works a fresh 4 MiB
// arena once, and every run reopens it with Open.
func heapCase(setup func(a *pmem.Allocator), model func() crashtest.Model[*pmem.Allocator]) crashtest.Case[*pmem.Allocator] {
	return crashtest.Case[*pmem.Allocator]{
		Setup: func() (*nvm.Memory, error) {
			m := nvm.New(nvm.Config{Size: 4 << 20, TrackPersistence: true})
			setup(pmem.Format(m))
			return m, nil
		},
		Open:  pmem.Open,
		Model: model,
	}
}

// TestCrashDuringAllocNeverDoubleServes drives alloc/free sequences with a
// crash injected at every successive durable operation and checks the
// central allocator invariant: after reattach, no two live allocations
// overlap and every block survives intact.
func TestCrashDuringAllocNeverDoubleServes(t *testing.T) {
	crashtest.Explore(t, heapCase(func(a *pmem.Allocator) {
		// Some history so free lists are non-trivial.
		var warm []uint64
		for i := 0; i < 8; i++ {
			warm = append(warm, a.Alloc(64))
		}
		for _, w := range warm[:4] {
			a.Free(w)
		}
	}, func() crashtest.Model[*pmem.Allocator] {
		return crashtest.Funcs[*pmem.Allocator]{
			Workload: func(a *pmem.Allocator, arm func()) error {
				arm()
				x := a.Alloc(64)
				y := a.Alloc(128)
				a.Free(x)
				z := a.Alloc(64)
				a.Free(y)
				a.Free(z)
				a.Free(a.Alloc(256))
				return nil
			},
			Verify: func(a *pmem.Allocator, crashed bool) error {
				// Allocate many blocks and require them all distinct and
				// inside the heap: metadata corruption would surface here.
				seen := map[uint64]bool{}
				for i := 0; i < 50; i++ {
					addr := a.Alloc(64)
					if seen[addr] || addr < pmem.HeapBase || addr >= uint64(a.Mem().Size()) {
						return fmt.Errorf("block %#x served twice or out of heap", addr)
					}
					seen[addr] = true
				}
				return nil
			},
		}
	}))
}

// TestReclaimCrashSweep: crash before every durable op inside Reclaim;
// every torn state must reopen into a consistent heap with no double-serve
// possible.
func TestReclaimCrashSweep(t *testing.T) {
	n := crashtest.Explore(t, heapCase(func(a *pmem.Allocator) {
		var addrs []uint64
		for i := 0; i < 16; i++ {
			addrs = append(addrs, a.Alloc(4000))
		}
		for _, addr := range addrs {
			a.Free(addr)
		}
	}, func() crashtest.Model[*pmem.Allocator] {
		return crashtest.Funcs[*pmem.Allocator]{
			Workload: func(a *pmem.Allocator, arm func()) error {
				arm()
				_, err := a.Reclaim(pmem.HeapBase, uint64(pmem.HeapBase+a.HeapUsed()))
				return err
			},
			Verify: func(a *pmem.Allocator, crashed bool) error { return a.CheckHeap() },
		}
	}))
	if n == 0 {
		t.Fatal("no durable ops inside Reclaim")
	}
}

// TestSplitCrashMatrixNoDoubleServe crashes before every durable operation
// inside a first-fit split and checks that no torn state can ever
// double-serve bytes: after recovery (reopen over the same arena), the heap
// walk parses, lists are consistent, and fresh allocations never overlap a
// block that was already handed out.
func TestSplitCrashMatrixNoDoubleServe(t *testing.T) {
	n := crashtest.Explore(t, heapCase(func(a *pmem.Allocator) { a.Free(a.Alloc(20 << 10)) },
		func() crashtest.Model[*pmem.Allocator] { return &splitRun{} }))
	if n == 0 {
		t.Fatal("no durable ops inside the split")
	}
}

type splitRun struct{ served uint64 }

func (r *splitRun) Run(a *pmem.Allocator, arm func()) error {
	arm()
	r.served = a.Alloc(17 << 10)
	return nil
}

func (r *splitRun) Check(a *pmem.Allocator, crashed bool) error {
	if err := a.CheckHeap(); err != nil {
		return err
	}
	// Allocate the heap dry; no two blocks (nor the possibly-served
	// pre-crash block) may overlap.
	type blk struct{ lo, hi uint64 }
	var blocks []blk
	if r.served != 0 {
		blocks = append(blocks, blk{r.served, r.served + uint64(a.BlockSize(r.served))})
	}
	for {
		addr, err := a.TryAlloc(4 << 10)
		if err != nil {
			return nil
		}
		nb := blk{addr, addr + uint64(a.BlockSize(addr))}
		for _, b := range blocks {
			if nb.lo < b.hi && nb.hi > b.lo {
				return fmt.Errorf("block [%#x,%#x) overlaps [%#x,%#x)", nb.lo, nb.hi, b.lo, b.hi)
			}
		}
		blocks = append(blocks, nb)
	}
}
