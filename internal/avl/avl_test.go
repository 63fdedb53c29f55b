package avl

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

const (
	treeSlot = 2
	logSlot  = 3
)

func cfg() Config { return Config{TreeSlot: treeSlot, LogSlot: logSlot, BucketSize: 16} }

func newTree(t testing.TB) (*nvm.Memory, *pmem.Allocator, *Tree) {
	t.Helper()
	m := nvm.New(nvm.Config{Size: 64 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	return m, a, New(a, cfg())
}

// fakeRecord allocates a minimal record block so chains point at real
// allocations (the tree never dereferences them).
func fakeRecord(a *pmem.Allocator, lsn uint64) uint64 {
	return rlog.Alloc(a, rlog.Fields{LSN: lsn, Type: rlog.TypeUpdate}).Addr
}

func TestInsertLookup(t *testing.T) {
	_, a, tr := newTree(t)
	recs := map[uint64]uint64{}
	for txn := uint64(1); txn <= 20; txn++ {
		r := fakeRecord(a, txn)
		tr.InsertRecord(txn, r)
		recs[txn] = r
	}
	for txn, r := range recs {
		head, tail, ok := tr.Lookup(txn)
		if !ok {
			t.Fatalf("txn %d not found", txn)
		}
		if head != r || tail != r {
			t.Fatalf("txn %d chain = (%#x,%#x), want %#x", txn, head, tail, r)
		}
	}
	if _, _, ok := tr.Lookup(99); ok {
		t.Fatal("found nonexistent txn")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChainExtension(t *testing.T) {
	_, a, tr := newTree(t)
	r1 := fakeRecord(a, 1)
	tr.InsertRecord(5, r1)
	if got := tr.ChainTail(5); got != r1 {
		t.Fatalf("ChainTail = %#x, want %#x", got, r1)
	}
	r2 := fakeRecord(a, 2)
	tr.InsertRecord(5, r2)
	head, tail, _ := tr.Lookup(5)
	if head != r1 || tail != r2 {
		t.Fatalf("chain = (%#x,%#x), want (%#x,%#x)", head, tail, r1, r2)
	}
	if tr.Size() != 1 {
		t.Fatalf("Size = %d, want 1", tr.Size())
	}
}

func TestChainTailOfUnknownTxn(t *testing.T) {
	_, _, tr := newTree(t)
	if got := tr.ChainTail(42); got != nvm.Null {
		t.Fatalf("ChainTail of unknown txn = %#x", got)
	}
}

func TestRemoveTxn(t *testing.T) {
	_, a, tr := newTree(t)
	for txn := uint64(1); txn <= 30; txn++ {
		tr.InsertRecord(txn, fakeRecord(a, txn))
	}
	for txn := uint64(2); txn <= 30; txn += 2 {
		tr.RemoveTxn(txn)
	}
	for txn := uint64(1); txn <= 30; txn++ {
		_, _, ok := tr.Lookup(txn)
		if want := txn%2 == 1; ok != want {
			t.Fatalf("txn %d present=%v, want %v", txn, ok, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Size(); got != 15 {
		t.Fatalf("Size = %d, want 15", got)
	}
}

func TestRemoveNonexistentIsNoop(t *testing.T) {
	_, a, tr := newTree(t)
	tr.InsertRecord(1, fakeRecord(a, 1))
	tr.RemoveTxn(99)
	if tr.Size() != 1 {
		t.Fatal("RemoveTxn of missing key changed the tree")
	}
	if !tr.Log().Empty() {
		t.Fatal("no-op removal left log records")
	}
}

func TestTxnsInOrder(t *testing.T) {
	_, a, tr := newTree(t)
	ids := []uint64{7, 3, 11, 1, 9, 5, 13, 2, 8}
	for _, id := range ids {
		tr.InsertRecord(id, fakeRecord(a, id))
	}
	chains := tr.Txns()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(chains) != len(ids) {
		t.Fatalf("Txns returned %d, want %d", len(chains), len(ids))
	}
	for i, c := range chains {
		if c.Txn != ids[i] {
			t.Fatalf("Txns[%d] = %d, want %d", i, c.Txn, ids[i])
		}
	}
}

func TestBalanceUnderSequentialInsert(t *testing.T) {
	_, a, tr := newTree(t)
	for txn := uint64(1); txn <= 256; txn++ {
		tr.InsertRecord(txn, fakeRecord(a, txn))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLogClearedAfterEachOp(t *testing.T) {
	_, a, tr := newTree(t)
	for txn := uint64(1); txn <= 50; txn++ {
		tr.InsertRecord(txn, fakeRecord(a, txn))
		if !tr.Log().Empty() {
			t.Fatalf("mini-log not empty after insert of %d (%d records)", txn, tr.Log().Len())
		}
	}
	tr.RemoveTxn(25)
	if !tr.Log().Empty() {
		t.Fatal("mini-log not empty after removal")
	}
}

func TestOpenCleanTree(t *testing.T) {
	m, a, tr := newTree(t)
	for txn := uint64(1); txn <= 10; txn++ {
		tr.InsertRecord(txn, fakeRecord(a, txn))
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(a, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Size() != 10 {
		t.Fatalf("Size after clean reopen = %d, want 10", tr2.Size())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// crashTestState captures the observable tree contents for comparison.
func snapshot(tr *Tree) map[uint64][2]uint64 {
	out := map[uint64][2]uint64{}
	for _, c := range tr.Txns() {
		out[c.Txn] = [2]uint64{c.Head, c.Tail}
	}
	return out
}

// treeCase is a crash case over one tree: setup populates it with a record
// per txn, and every run reopens it with pmem.Open and Open.
func treeCase(txns []uint64, model func() crashtest.Model[*Tree]) crashtest.Case[*Tree] {
	return crashtest.Case[*Tree]{
		Setup: func() (*nvm.Memory, error) {
			m := nvm.New(nvm.Config{Size: 1 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			tr := New(a, cfg())
			for _, txn := range txns {
				tr.InsertRecord(txn, fakeRecord(a, txn))
			}
			return m, nil
		},
		Open: func(m *nvm.Memory) (*Tree, error) {
			a, err := pmem.Open(m)
			if err != nil {
				return nil, err
			}
			return Open(a, cfg())
		},
		Model: model,
	}
}

// sameBut checks that after holds before's entries unchanged, txn aside.
func sameBut(after, before map[uint64][2]uint64, txn uint64) error {
	for k, v := range before {
		if k != txn && after[k] != v {
			return fmt.Errorf("entry %d corrupted: %v", k, after)
		}
	}
	for k := range after {
		if _, ok := before[k]; !ok && k != txn {
			return fmt.Errorf("entry %d appeared: %v", k, after)
		}
	}
	return nil
}

// insertTxn inserts a record for txn 9 into the tree of 9 entries: the
// insert rebalances. After recovery the tree holds exactly the before
// state, or it plus the new entry — all new once the insert returned.
func insertTxn(checkUsable bool) func() crashtest.Model[*Tree] {
	return func() crashtest.Model[*Tree] {
		var before map[uint64][2]uint64
		var rec uint64
		inserted := false
		return crashtest.Funcs[*Tree]{
			Workload: func(tr *Tree, arm func()) error {
				before, rec = snapshot(tr), fakeRecord(tr.a, 100)
				arm()
				tr.InsertRecord(9, rec)
				inserted = true
				return nil
			},
			Verify: func(tr *Tree, crashed bool) error {
				if err := tr.CheckInvariants(); err != nil {
					return err
				}
				after := snapshot(tr)
				if got, ok := after[9]; (ok && got != [2]uint64{rec, rec}) || (inserted && !ok) {
					return fmt.Errorf("partial or lost insert: %v", after)
				}
				if err := sameBut(after, before, 9); err != nil {
					return err
				}
				if !checkUsable {
					return nil
				}
				// The recovered tree must accept further operations.
				tr.InsertRecord(999, fakeRecord(tr.a, 999))
				if _, _, ok := tr.Lookup(999); !ok {
					return fmt.Errorf("post-recovery insert failed")
				}
				return nil
			},
		}
	}
}

// TestCrashAtEveryPointDuringInsert verifies operation atomicity: a crash
// at any durable-op boundary during InsertRecord leaves, after recovery,
// either the exact before state or the exact after state.
func TestCrashAtEveryPointDuringInsert(t *testing.T) {
	crashtest.Explore(t, treeCase([]uint64{10, 5, 15, 3, 7, 12, 20, 6, 8}, insertTxn(true)))
}

// TestCrashAtEveryPointDuringRemove mirrors the insert test for removals,
// which exercise the deepest rebalancing paths.
func TestCrashAtEveryPointDuringRemove(t *testing.T) {
	crashtest.Explore(t, treeCase([]uint64{10, 5, 15, 3, 7, 12, 20, 6, 8, 11, 13, 17, 25}, func() crashtest.Model[*Tree] {
		var before map[uint64][2]uint64
		removed := false
		return crashtest.Funcs[*Tree]{
			Workload: func(tr *Tree, arm func()) error {
				before = snapshot(tr)
				arm()
				tr.RemoveTxn(10) // two-child case
				removed = true
				return nil
			},
			Verify: func(tr *Tree, crashed bool) error {
				if err := tr.CheckInvariants(); err != nil {
					return err
				}
				after := snapshot(tr)
				if got, ok := after[10]; (ok && got != before[10]) || (removed && ok) {
					return fmt.Errorf("removal not atomic: %v", after)
				}
				return sameBut(after, before, 10)
			},
		}
	}))
}

// TestDoubleCrashDuringRecovery crashes the insert before every durable
// operation and recovery before every one of its own, then recovers fully
// and checks convergence.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	c := treeCase([]uint64{10, 5, 15, 3, 7, 12, 20, 6, 8}, insertTxn(false))
	c.EveryRecoveryPoint = true
	crashtest.Explore(t, c)
}

// TestQuickRandomOpsKeepInvariants property-tests random insert/remove
// sequences against a map model.
func TestQuickRandomOpsKeepInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := nvm.New(nvm.Config{Size: 64 << 20, TrackPersistence: true})
		a := pmem.Format(m)
		tr := New(a, cfg())
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64]bool{}
		for i := 0; i < int(n)+10; i++ {
			txn := uint64(rng.Intn(30)) + 1
			if model[txn] && rng.Intn(2) == 0 {
				tr.RemoveTxn(txn)
				delete(model, txn)
			} else if !model[txn] {
				tr.InsertRecord(txn, fakeRecord(a, txn))
				model[txn] = true
			} else {
				tr.InsertRecord(txn, fakeRecord(a, txn)) // chain extension
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		chains := tr.Txns()
		if len(chains) != len(model) {
			return false
		}
		for _, c := range chains {
			if !model[c.Txn] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
