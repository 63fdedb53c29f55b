package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/pmem"
)

// TestMigrateRange relocates every tree node out of the lower half of the
// heap in bounded transactions and checks the tree is untouched
// logically: same keys, same values, same order, clean invariants — in
// both commit modes.
func TestMigrateRange(t *testing.T) {
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		opts := rewind.Options{CommitMode: mode}
		s, tr := newTree(t, opts, smallCfg())
		const n = 400
		for k := uint64(1); k <= n; k++ {
			if _, err := tr.InsertAtomic(k*7, val(k, 16)); err != nil {
				t.Fatal(err)
			}
		}
		alloc := s.Allocator()
		lo := uint64(pmem.HeapBase)
		hi := lo + uint64(alloc.HeapUsed())/2
		alloc.SetReclaiming(lo, hi)
		var total int
		for {
			var moved int
			var done bool
			err := s.Atomic(func(tx *rewind.Tx) error {
				var err error
				moved, done, err = tr.MigrateRange(tx, lo, hi, 7)
				return err
			})
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			if moved > 7 {
				t.Fatalf("mode %v: budget exceeded: %d moves", mode, moved)
			}
			total += moved
			if done {
				break
			}
		}
		alloc.SetReclaiming(0, 0)
		if total == 0 {
			t.Fatalf("mode %v: nothing migrated out of the lower half", mode)
		}
		// A second full-budget pass finds the range clear.
		if err := s.Atomic(func(tx *rewind.Tx) error {
			moved, done, err := tr.MigrateRange(tx, lo, hi, 1<<20)
			if err != nil {
				return err
			}
			if moved != 0 || !done {
				t.Fatalf("mode %v: range not emptied: moved=%d done=%v", mode, moved, done)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if err := alloc.CheckHeap(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		keys := tr.Keys()
		if len(keys) != n {
			t.Fatalf("mode %v: %d keys after migration, want %d", mode, len(keys), n)
		}
		for i, k := range keys {
			if k != uint64(i+1)*7 {
				t.Fatalf("mode %v: key order broken at %d: %d", mode, i, k)
			}
			got, ok := tr.Lookup(k)
			if !ok {
				t.Fatalf("mode %v: key %d lost", mode, k)
			}
			want := val(uint64(i+1), 16)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("mode %v: key %d: value corrupted", mode, k)
				}
			}
		}
	}
}

// TestMigrateCrashMatrix injects a crash before every durable operation
// inside a migration transaction, in both commit modes. Migration changes
// no logical state, so after recovery the tree must hold exactly the
// pre-migration keys — whether the transaction replayed or rolled back —
// with clean tree and heap invariants.
func TestMigrateCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix")
	}
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		for crashAt := 1; ; crashAt += 3 {
			opts := rewind.Options{ArenaSize: 64 << 20, Policy: rewind.Force, LogKind: rewind.Optimized, CommitMode: mode}
			s, tr := newTree(t, opts, smallCfg())
			for k := uint64(1); k <= 120; k++ {
				tr.InsertAtomic(k, val(k, 16))
			}
			alloc := s.Allocator()
			lo := uint64(pmem.HeapBase)
			hi := lo + uint64(alloc.HeapUsed())/2
			alloc.SetReclaiming(lo, hi)
			s.Mem().SetCrashAfter(crashAt)
			crashed := s.Mem().RunToCrash(func() {
				for {
					var done bool
					err := s.Atomic(func(tx *rewind.Tx) error {
						var err error
						_, done, err = tr.MigrateRange(tx, lo, hi, 9)
						return err
					})
					if err != nil || done {
						return
					}
				}
			})
			s.Mem().SetCrashAfter(0)
			s2, err := rewind.Reattach(s.Options(), s.Mem())
			if err != nil {
				t.Fatalf("mode %v crashAt=%d: %v", mode, crashAt, err)
			}
			tr2, err := Attach(s2, smallCfg())
			if err != nil {
				t.Fatalf("mode %v crashAt=%d: %v", mode, crashAt, err)
			}
			if err := tr2.CheckInvariants(); err != nil {
				t.Fatalf("mode %v crashAt=%d: %v", mode, crashAt, err)
			}
			if err := s2.Allocator().CheckHeap(); err != nil {
				t.Fatalf("mode %v crashAt=%d: %v", mode, crashAt, err)
			}
			keys := tr2.Keys()
			if len(keys) != 120 {
				t.Fatalf("mode %v crashAt=%d: %d keys after recovery, want 120", mode, crashAt, len(keys))
			}
			for i, k := range keys {
				if k != uint64(i+1) {
					t.Fatalf("mode %v crashAt=%d: key order broken at %d: %d", mode, crashAt, i, k)
				}
			}
			if !crashed {
				break
			}
		}
	}
}

// lenRec builds a length-prefixed record prefix: the length word, then n
// payload bytes derived from k, zero-filled to the next word.
func lenRec(k uint64, n int) []byte {
	rec := make([]byte, 8+(n+7)&^7)
	binary.LittleEndian.PutUint64(rec, uint64(n))
	copy(rec[8:], val(k, n))
	return rec
}

// TestMigrateRangeMixedLengths: on a length-prefixed tree a relocated leaf
// carries each live record's used prefix and no more. Values of every length
// from empty to the full slot, some shortened in place so their slots hold a
// stale tail, read back unchanged after the move, and moving the whole tree
// logs less than its leaves' footprint — let alone the two images of it a
// whole-node span would.
func TestMigrateRangeMixedLengths(t *testing.T) {
	cfg := Config{ValueSize: 520, LenPrefix: true, RootSlot: slot} // the shape of kv's default trees
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		s, tr := newTree(t, rewind.Options{CommitMode: mode}, cfg)
		const n = 300
		want := map[uint64][]byte{}
		for k := uint64(1); k <= n; k++ {
			want[k] = lenRec(k, int(k%65))
			if k%65 == 0 {
				want[k] = lenRec(k, 512)
			}
			if _, err := tr.InsertAtomic(k, want[k]); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(3); k <= n; k += 3 { // shorten: the old tail stays in the slot
			want[k] = lenRec(k+1000, int(k%9))
			if _, err := tr.InsertAtomic(k, want[k]); err != nil {
				t.Fatal(err)
			}
		}
		alloc := s.Allocator()
		lo := uint64(pmem.HeapBase)
		hi := lo + uint64(alloc.HeapUsed())
		alloc.SetReclaiming(lo, hi)
		logBefore := s.LogBytes()
		var moved int
		if err := s.Atomic(func(tx *rewind.Tx) error {
			var err error
			moved, _, err = tr.MigrateRange(tx, lo, hi, 1<<20)
			return err
		}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		alloc.SetReclaiming(0, 0)
		// n records cannot sit in fewer than n/LeafCap leaves.
		leaves := n / tr.Config().LeafCap
		if logged, footprint := s.LogBytes()-logBefore, int64(leaves*cfg.LeafSize()); moved < leaves || logged >= footprint {
			t.Fatalf("mode %v: moving %d nodes logged %d B; want at least %d nodes and under %d B", mode, moved, logged, leaves, footprint)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if keys := tr.Keys(); len(keys) != n {
			t.Fatalf("mode %v: %d keys after migration, want %d", mode, len(keys), n)
		}
		for k, rec := range want {
			got, ok := tr.Lookup(k)
			if !ok || !bytes.Equal(got[:len(rec)], rec) {
				t.Fatalf("mode %v: key %d reads %x (present=%v), want prefix %x", mode, k, got, ok, rec)
			}
		}
	}
}

// TestRecordPrefixValidation: a length-prefixed tree takes a word-rounded
// prefix that covers its declared payload and fits the slot (or the whole
// slot), a fixed-width tree only the whole slot.
func TestRecordPrefixValidation(t *testing.T) {
	_, fixed := newTree(t, rewind.Options{}, smallCfg())
	if _, err := fixed.InsertAtomic(1, make([]byte, 8)); !errors.Is(err, ErrValueSize) {
		t.Fatalf("fixed-width tree took an 8-byte record into a 16-byte slot: %v", err)
	}
	cfg := smallCfg()
	cfg.LenPrefix = true
	_, tr := newTree(t, rewind.Options{}, cfg)
	for _, c := range []struct {
		name string
		rec  []byte
		ok   bool
	}{
		{"empty value", lenRec(1, 0), true},
		{"full slot", lenRec(1, 8), true},
		{"no length word", nil, false},
		{"not word-rounded", lenRec(1, 8)[:12], false},
		{"shorter than it declares", lenRec(1, 8)[:8], false},
		{"longer than the slot", lenRec(1, 16), false},
	} {
		if _, err := tr.InsertAtomic(1, c.rec); (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrValueSize)) {
			t.Errorf("%s (%d bytes): err = %v, want accepted=%v", c.name, len(c.rec), err, c.ok)
		}
	}
}
