package rewind

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func testStore(t testing.TB, opts Options) *Store {
	t.Helper()
	if opts.ArenaSize == 0 {
		opts.ArenaSize = 32 << 20
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func allOptionSets() []Options {
	return []Options{
		{Policy: NoForce, Layers: OneLayer, LogKind: Simple},
		{Policy: NoForce, Layers: OneLayer, LogKind: Optimized},
		{Policy: NoForce, Layers: OneLayer, LogKind: Batch},
		{Policy: Force, Layers: OneLayer, LogKind: Batch},
		{Policy: Force, Layers: TwoLayer, LogKind: Optimized},
		{Policy: NoForce, Layers: TwoLayer, LogKind: Optimized},
	}
}

func optName(o Options) string {
	return fmt.Sprintf("%v-%v-%v", o.Layers, o.Policy, o.LogKind)
}

func TestAtomicCommit(t *testing.T) {
	for _, opts := range allOptionSets() {
		t.Run(optName(opts), func(t *testing.T) {
			s := testStore(t, opts)
			addr := s.Alloc(16)
			err := s.Atomic(func(tx *Tx) error {
				if err := tx.Write64(addr, 7); err != nil {
					return err
				}
				return tx.Write64(addr+8, 8)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Read64(addr); got != 7 {
				t.Fatalf("word0 = %d", got)
			}
			if got := s.Read64(addr + 8); got != 8 {
				t.Fatalf("word1 = %d", got)
			}
		})
	}
}

func TestAtomicErrorRollsBack(t *testing.T) {
	s := testStore(t, Options{})
	addr := s.Alloc(8)
	s.Atomic(func(tx *Tx) error { return tx.Write64(addr, 1) })
	boom := errors.New("boom")
	err := s.Atomic(func(tx *Tx) error {
		tx.Write64(addr, 99)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := s.Read64(addr); got != 1 {
		t.Fatalf("rollback left %d", got)
	}
}

func TestAtomicPanicRollsBackAndRethrows(t *testing.T) {
	s := testStore(t, Options{})
	addr := s.Alloc(8)
	func() {
		defer func() {
			if v := recover(); v != "kaboom" {
				t.Fatalf("recover = %v", v)
			}
		}()
		s.Atomic(func(tx *Tx) error {
			tx.Write64(addr, 99)
			panic("kaboom")
		})
	}()
	if got := s.Read64(addr); got != 0 {
		t.Fatalf("panic rollback left %d", got)
	}
}

func TestTxDoneErrors(t *testing.T) {
	s := testStore(t, Options{})
	addr := s.Alloc(8)
	tx := s.Begin()
	tx.Write64(addr, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write64(addr, 2); !errors.Is(err, ErrTxDone) {
		t.Fatalf("write after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
}

func TestCrashRecoveryThroughPublicAPI(t *testing.T) {
	for _, opts := range allOptionSets() {
		t.Run(optName(opts), func(t *testing.T) {
			s := testStore(t, opts)
			addr := s.Alloc(32)
			s.SetRoot(AppRootFirst, addr)
			if err := s.Atomic(func(tx *Tx) error {
				for i := uint64(0); i < 4; i++ {
					tx.Write64(addr+i*8, 100+i)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// An uncommitted transaction in flight at the crash.
			tx := s.Begin()
			tx.Write64(addr, 999)

			s2, err := s.Crash()
			if err != nil {
				t.Fatal(err)
			}
			if !s2.Recovery.CrashDetected {
				t.Error("crash not detected")
			}
			got := s2.Root(AppRootFirst)
			if got != addr {
				t.Fatalf("root lost: %#x", got)
			}
			for i := uint64(0); i < 4; i++ {
				if v := s2.Read64(addr + i*8); v != 100+i {
					t.Fatalf("word %d = %d, want %d", i, v, 100+i)
				}
			}
		})
	}
}

func TestImageSaveAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.img")
	opts := Options{ArenaSize: 8 << 20, ImagePath: path}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Alloc(8)
	s.SetRoot(AppRootFirst, addr)
	if err := s.Atomic(func(tx *Tx) error { return tx.Write64(addr, 4242) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Fresh process: reopen from the image.
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	a2 := s2.Root(AppRootFirst)
	if got := s2.Read64(a2); got != 4242 {
		t.Fatalf("value after image reopen = %d", got)
	}
	if s2.Recovery.CrashDetected {
		t.Error("clean close + image reopen reported a crash")
	}
}

func TestFreeDeferredToCommit(t *testing.T) {
	s := testStore(t, Options{Policy: Force, LogKind: Optimized})
	block := s.Alloc(64)
	if err := s.Atomic(func(tx *Tx) error { return tx.Free(block) }); err != nil {
		t.Fatal(err)
	}
	if !s.Allocator().IsFree(block) {
		t.Fatal("block not freed after commit")
	}
	// Rollback keeps the block.
	block2 := s.Alloc(64)
	s.Atomic(func(tx *Tx) error {
		tx.Free(block2)
		return errors.New("abort")
	})
	if s.Allocator().IsFree(block2) {
		t.Fatal("rolled-back Free freed the block")
	}
}

func TestNewTMDistributedLogs(t *testing.T) {
	s := testStore(t, Options{Policy: Force, LogKind: Optimized})
	tm2, err := s.NewTM()
	if err != nil {
		t.Fatal(err)
	}
	a1 := s.Alloc(8)
	a2 := s.Alloc(8)
	// Primary and secondary managers commit independently.
	if err := s.Atomic(func(tx *Tx) error { return tx.Write64(a1, 1) }); err != nil {
		t.Fatal(err)
	}
	tx2 := tm2.Begin()
	if err := tx2.Write64(a2, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Read64(a1) != 1 || s.Read64(a2) != 2 {
		t.Fatal("values lost")
	}
	// Managers are limited by the root-slot budget.
	n := 0
	for {
		if _, err := s.NewTM(); err != nil {
			break
		}
		n++
		if n > 64 {
			t.Fatal("no root-slot limit")
		}
	}
}

func TestConcurrentAtomicBlocks(t *testing.T) {
	s := testStore(t, Options{LogKind: Batch})
	const goroutines = 8
	addrs := make([]uint64, goroutines)
	for i := range addrs {
		addrs[i] = s.Alloc(8)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				err := s.Atomic(func(tx *Tx) error {
					return tx.Write64(addrs[g], uint64(k))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range addrs {
		if got := s.Read64(addrs[g]); got != 49 {
			t.Fatalf("g=%d final = %d", g, got)
		}
	}
}

// TestShardedStoreCrashRecovery drives Options.LogShards through the
// public API: concurrent committed transactions across 4 shards, one
// uncommitted straggler, a simulated power failure, and recovery.
func TestShardedStoreCrashRecovery(t *testing.T) {
	s := testStore(t, Options{LogKind: Batch, LogShards: 4})
	const goroutines = 4
	addrs := make([]uint64, goroutines)
	for i := range addrs {
		addrs[i] = s.Alloc(8)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k <= 50; k++ {
				err := s.Atomic(func(tx *Tx) error {
					return tx.Write64(addrs[g], uint64(1000+k))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := s.TMStats()
	if len(st.Shards) != 4 {
		t.Fatalf("expected 4 shard stats entries, got %d", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Commits == 0 {
			t.Fatalf("shard %d saw no commits", i)
		}
	}

	// A straggler that never commits.
	straggler := s.Begin()
	if err := straggler.Write64(addrs[0], 9999); err != nil {
		t.Fatal(err)
	}

	s2, err := s.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Recovery.CrashDetected {
		t.Fatal("crash not detected")
	}
	for g := range addrs {
		if got := s2.Read64(addrs[g]); got != 1050 {
			t.Fatalf("g=%d final = %d, want 1050", g, got)
		}
	}
	// The recovered store keeps working with the same shard layout.
	if err := s2.Atomic(func(tx *Tx) error { return tx.Write64(addrs[0], 7) }); err != nil {
		t.Fatal(err)
	}
	if got := s2.Read64(addrs[0]); got != 7 {
		t.Fatalf("post-recovery write = %d", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ArenaSize == 0 || o.LogKind != Batch {
		t.Fatalf("defaults: %+v", o)
	}
	two := Options{Layers: TwoLayer}.withDefaults()
	if two.LogKind != Optimized {
		t.Fatalf("two-layer default log kind = %v", two.LogKind)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s := testStore(t, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAtomicSequences property-tests random sequences of committed and
// aborted transactions against a Go-map model of the store.
func TestQuickAtomicSequences(t *testing.T) {
	for _, opts := range []Options{
		{Policy: NoForce, Layers: OneLayer, LogKind: Batch},
		{Policy: Force, Layers: TwoLayer, LogKind: Optimized},
	} {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			f := func(ops []uint16) bool {
				opts.ArenaSize = 32 << 20
				s, err := Open(opts)
				if err != nil {
					return false
				}
				const slots = 8
				base := s.Alloc(slots * 8)
				model := make(map[uint64]uint64, slots)
				for i, op := range ops {
					slot := uint64(op) % slots
					val := uint64(i + 1)
					abort := op%3 == 0
					s.Atomic(func(tx *Tx) error {
						tx.Write64(base+slot*8, val)
						// A second write in the same transaction.
						other := (slot + 1) % slots
						tx.Write64(base+other*8, val+1000)
						if abort {
							return errors.New("abort")
						}
						model[slot] = val
						model[other] = val + 1000
						return nil
					})
				}
				for slot := uint64(0); slot < slots; slot++ {
					if got := s.Read64(base + slot*8); got != model[slot] {
						return false
					}
				}
				// Crash and verify the model still holds after recovery.
				s2, err := s.Crash()
				if err != nil {
					return false
				}
				for slot := uint64(0); slot < slots; slot++ {
					if got := s2.Read64(base + slot*8); got != model[slot] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
