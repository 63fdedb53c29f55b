package btree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
)

const slot = rewind.AppRootFirst + 1

func smallCfg() Config {
	// Tiny fan-out so tests exercise splits, borrows and merges deeply.
	return Config{MaxKeys: 4, LeafCap: 4, ValueSize: 16, RootSlot: slot}
}

func newTree(t testing.TB, opts rewind.Options, cfg Config) (*rewind.Store, *Tree) {
	t.Helper()
	if opts.ArenaSize == 0 {
		opts.ArenaSize = 64 << 20
	}
	s, err := rewind.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, tr
}

func val(k uint64, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(k + uint64(i))
	}
	return v
}

func TestInsertLookup(t *testing.T) {
	_, tr := newTree(t, rewind.Options{}, smallCfg())
	for k := uint64(1); k <= 100; k++ {
		added, err := tr.InsertAtomic(k*3, val(k, 16))
		if err != nil {
			t.Fatal(err)
		}
		if !added {
			t.Fatalf("key %d reported as existing", k*3)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for k := uint64(1); k <= 100; k++ {
		got, ok := tr.Lookup(k * 3)
		if !ok {
			t.Fatalf("key %d missing", k*3)
		}
		want := val(k, 16)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d: value mismatch", k*3)
			}
		}
	}
	if _, ok := tr.Lookup(7); ok {
		t.Fatal("found nonexistent key")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() < 3 {
		t.Fatalf("depth %d: fan-out too small to exercise splits", tr.Depth())
	}
}

func TestInsertOverwrite(t *testing.T) {
	_, tr := newTree(t, rewind.Options{}, smallCfg())
	tr.InsertAtomic(5, val(1, 16))
	added, err := tr.InsertAtomic(5, val(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Fatal("overwrite reported as new key")
	}
	got, _ := tr.Lookup(5)
	want := val(2, 16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("overwrite did not replace value")
		}
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", tr.Len())
	}
}

func TestValueSizeChecked(t *testing.T) {
	s, tr := newTree(t, rewind.Options{}, smallCfg())
	err := s.Atomic(func(tx *rewind.Tx) error {
		_, e := tr.Insert(tx, 1, []byte{1, 2, 3})
		return e
	})
	if err != ErrValueSize {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteAscendingDescending(t *testing.T) {
	_, tr := newTree(t, rewind.Options{}, smallCfg())
	const n = 200
	for k := uint64(1); k <= n; k++ {
		tr.InsertAtomic(k, val(k, 16))
	}
	// Delete ascending half, then descending half.
	for k := uint64(1); k <= n/2; k++ {
		found, err := tr.DeleteAtomic(k)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", k, found, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", k, err)
		}
	}
	for k := uint64(n); k > n/2; k-- {
		found, err := tr.DeleteAtomic(k)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", k, found, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree remains usable after full drain.
	tr.InsertAtomic(7, val(7, 16))
	if _, ok := tr.Lookup(7); !ok {
		t.Fatal("insert after drain failed")
	}
}

func TestDeleteMissing(t *testing.T) {
	_, tr := newTree(t, rewind.Options{}, smallCfg())
	tr.InsertAtomic(1, val(1, 16))
	found, err := tr.DeleteAtomic(99)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("deleted a missing key")
	}
	if tr.Len() != 1 {
		t.Fatal("Len changed")
	}
}

func TestScanRange(t *testing.T) {
	_, tr := newTree(t, rewind.Options{}, smallCfg())
	for k := uint64(0); k < 100; k += 2 {
		tr.InsertAtomic(k, val(k, 16))
	}
	var got []uint64
	tr.Scan(10, 30, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}
	if len(got) != len(want) {
		t.Fatalf("Scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.Scan(0, ^uint64(0)-1, func(uint64, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestRollbackRestoresTree(t *testing.T) {
	s, tr := newTree(t, rewind.Options{}, smallCfg())
	for k := uint64(1); k <= 50; k++ {
		tr.InsertAtomic(k, val(k, 16))
	}
	before := tr.Keys()
	err := s.Atomic(func(tx *rewind.Tx) error {
		for k := uint64(100); k < 120; k++ {
			if _, e := tr.Insert(tx, k, val(k, 16)); e != nil {
				return e
			}
		}
		for k := uint64(1); k <= 10; k++ {
			if _, e := tr.Delete(tx, k); e != nil {
				return e
			}
		}
		return fmt.Errorf("abort")
	})
	if err == nil {
		t.Fatal("expected abort")
	}
	after := tr.Keys()
	if len(after) != len(before) {
		t.Fatalf("rollback: %d keys, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("rollback diverged at %d", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryPreservesCommittedOps(t *testing.T) {
	for _, opts := range []rewind.Options{
		{Policy: rewind.NoForce, LogKind: rewind.Batch},
		{Policy: rewind.Force, LogKind: rewind.Optimized},
		{Policy: rewind.Force, Layers: rewind.TwoLayer, LogKind: rewind.Optimized},
	} {
		s, tr := newTree(t, opts, smallCfg())
		for k := uint64(1); k <= 60; k++ {
			tr.InsertAtomic(k, val(k, 16))
		}
		for k := uint64(1); k <= 20; k++ {
			tr.DeleteAtomic(k)
		}
		s2, err := s.Crash()
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := Attach(s2, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr2.Len() != 40 {
			t.Fatalf("Len after crash = %d, want 40", tr2.Len())
		}
		for k := uint64(21); k <= 60; k++ {
			if _, ok := tr2.Lookup(k); !ok {
				t.Fatalf("committed key %d lost", k)
			}
		}
	}
}

// treeCase is a crash case over one small-fan-out tree in a store opened
// with Force and the Optimized log: setup fills it once, and every run
// reattaches it.
func treeCase(mode rewind.CommitMode, setup func(*Tree) error, model func() crashtest.Model[*Tree]) crashtest.Case[*Tree] {
	opts := rewind.Options{ArenaSize: 64 << 20, Policy: rewind.Force, LogKind: rewind.Optimized, CommitMode: mode}
	return crashtest.Case[*Tree]{
		Setup: func() (*nvm.Memory, error) {
			s, err := rewind.Open(opts)
			if err != nil {
				return nil, err
			}
			tr, err := New(s, smallCfg())
			if err != nil {
				return nil, err
			}
			return s.Mem(), setup(tr)
		},
		Open: func(m *nvm.Memory) (*Tree, error) {
			s, err := rewind.Reattach(opts, m)
			if err != nil {
				return nil, err
			}
			return Attach(s, smallCfg())
		},
		Model: model,
	}
}

// oneOp runs op on key as the window. After recovery the tree holds the
// keys it had, or those plus key (insert) or minus it (delete) — the
// latter once op returned.
func oneOp(key uint64, insert bool, op func(*Tree) error) func() crashtest.Model[*Tree] {
	return func() crashtest.Model[*Tree] {
		before, done := 0, false
		return crashtest.Funcs[*Tree]{
			Workload: func(tr *Tree, arm func()) error {
				before = len(tr.Keys())
				arm()
				err := op(tr)
				done = true
				return err
			},
			Verify: func(tr *Tree, crashed bool) error {
				if err := tr.CheckInvariants(); err != nil {
					return err
				}
				_, present := tr.Lookup(key)
				applied, want := present == insert, before
				switch {
				case applied && insert:
					want++
				case applied:
					want--
				case done:
					return fmt.Errorf("op on key %d returned but did not survive", key)
				}
				if keys := len(tr.Keys()); keys != want {
					return fmt.Errorf("key %d applied=%v with %d keys, want %d", key, applied, keys, want)
				}
				return nil
			},
		}
	}
}

// TestCrashMidSplitIsAtomic injects crashes through an insert that splits
// nodes up to the root — the deepest structural change — and checks
// atomicity after recovery.
func TestCrashMidSplitIsAtomic(t *testing.T) {
	crashtest.Explore(t, treeCase(rewind.UndoRedo, func(tr *Tree) error {
		// Fill so the next insert splits up to the root.
		for k := uint64(0); k < 24; k++ {
			if _, err := tr.InsertAtomic(k*10, val(k, 16)); err != nil {
				return err
			}
		}
		return nil
	}, oneOp(115, true, func(tr *Tree) error { _, err := tr.InsertAtomic(115, val(9, 16)); return err })))
}

// TestCrashMidMergeIsAtomic mirrors the split test for the deepest delete
// rebalancing paths.
func TestCrashMidMergeIsAtomic(t *testing.T) {
	crashtest.Explore(t, treeCase(rewind.UndoRedo, func(tr *Tree) error {
		for k := uint64(0); k < 25; k++ {
			if _, err := tr.InsertAtomic(k, val(k, 16)); err != nil {
				return err
			}
		}
		// Drain until the next delete merges down the whole left spine.
		for k := uint64(0); k < 12; k++ {
			if _, err := tr.DeleteAtomic(k); err != nil {
				return err
			}
		}
		return nil
	}, oneOp(12, false, func(tr *Tree) error { _, err := tr.DeleteAtomic(12); return err })))
}

func TestNVMAndDRAMWriters(t *testing.T) {
	s, _ := newTree(t, rewind.Options{}, smallCfg())
	for _, tc := range []struct {
		name string
		w    Writer
	}{
		{"NVM", NVMWriter{Mem: s.Mem(), A: s.Allocator()}},
		{"DRAM", DRAMWriter{Mem: s.Mem(), A: s.Allocator()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.RootSlot = slot + 1
			tr, err := New(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= 100; k++ {
				if _, err := tr.Insert(tc.w, k, val(k, 16)); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(1); k <= 50; k++ {
				if found, err := tr.Delete(tc.w, k); err != nil || !found {
					t.Fatalf("delete %d: %v %v", k, found, err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 50 {
				t.Fatalf("Len = %d", tr.Len())
			}
		})
	}
}

func TestRecoverableCostsMoreThanRaw(t *testing.T) {
	// Sanity on the cost model: recoverable inserts must charge more NVM
	// line writes than the non-recoverable NVM writer, which must charge
	// more than DRAM (Figure 7's ordering).
	s, tr := newTree(t, rewind.Options{Policy: rewind.NoForce, LogKind: rewind.Batch}, smallCfg())
	base := s.Stats()
	for k := uint64(1); k <= 200; k++ {
		tr.InsertAtomic(k, val(k, 16))
	}
	rewindWrites := s.Stats().Sub(base).LineWrites

	cfgN := smallCfg()
	cfgN.RootSlot = slot + 1
	trN, _ := New(s, cfgN)
	base = s.Stats()
	nw := NVMWriter{Mem: s.Mem(), A: s.Allocator()}
	for k := uint64(1); k <= 200; k++ {
		trN.Insert(nw, k, val(k, 16))
	}
	nvmWrites := s.Stats().Sub(base).LineWrites

	cfgD := smallCfg()
	cfgD.RootSlot = slot + 2
	trD, _ := New(s, cfgD)
	base = s.Stats()
	dw := DRAMWriter{Mem: s.Mem(), A: s.Allocator()}
	for k := uint64(1); k <= 200; k++ {
		trD.Insert(dw, k, val(k, 16))
	}
	dramWrites := s.Stats().Sub(base).LineWrites

	if !(rewindWrites > nvmWrites && nvmWrites > dramWrites) {
		t.Fatalf("write ordering violated: rewind=%d nvm=%d dram=%d", rewindWrites, nvmWrites, dramWrites)
	}
}

// TestQuickRandomOpsAgainstMap property-tests random workloads against a
// map model, with crash+recovery at the end.
func TestQuickRandomOpsAgainstMap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		opts := rewind.Options{ArenaSize: 64 << 20, Policy: rewind.NoForce, LogKind: rewind.Batch}
		s, err := rewind.Open(opts)
		if err != nil {
			return false
		}
		tr, err := New(s, smallCfg())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64][]byte{}
		for i := 0; i < int(n)+20; i++ {
			k := uint64(rng.Intn(50)) + 1
			switch rng.Intn(3) {
			case 0:
				v := val(uint64(rng.Intn(1000)), 16)
				tr.InsertAtomic(k, v)
				model[k] = v
			case 1:
				tr.DeleteAtomic(k)
				delete(model, k)
			default:
				got, ok := tr.Lookup(k)
				want, wantOK := model[k]
				if ok != wantOK {
					return false
				}
				if ok {
					for j := range want {
						if got[j] != want[j] {
							return false
						}
					}
				}
			}
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		s2, err := s.Crash()
		if err != nil {
			return false
		}
		tr2, err := Attach(s2, smallCfg())
		if err != nil {
			return false
		}
		if tr2.CheckInvariants() != nil {
			return false
		}
		if tr2.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := tr2.Lookup(k)
			if !ok {
				return false
			}
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
