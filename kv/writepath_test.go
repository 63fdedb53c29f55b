package kv

// Tests for the fine-grained write path (DESIGN.md §8): tier routing and
// its counters, the latch-hold-excludes-commit-wait guarantee, shard
// pinning for single-stripe batches, and the CAS-overwrite crash matrix.

import (
	"fmt"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
)

// TestWritePathRouting pins which tier each write takes on a one-stripe
// store whose root leaf holds LeafCap=16 records: fresh inserts ride the
// leaf path, the 17th (splitting) insert falls back to the stripe-
// exclusive tier, an existing-key Put takes the overwrite fast path, and
// deletes fall back exactly when the leaf would underflow.
func TestWritePathRouting(t *testing.T) {
	s := newKV(t, 1, false)
	for k := uint64(1); k <= 16; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.OverwriteFastPath != 0 || st.StripeLatchFallbacks != 0 {
		t.Fatalf("16 fresh inserts into one leaf: fast=%d fallbacks=%d, want 0/0",
			st.OverwriteFastPath, st.StripeLatchFallbacks)
	}
	// 17th insert: leaf full, the insert splits — structural tier.
	if err := s.Put(17, []byte{17}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().StripeLatchFallbacks; got != 1 {
		t.Fatalf("splitting insert took %d fallbacks, want 1", got)
	}
	// Existing key: the non-structural overwrite fast path.
	if err := s.Put(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().OverwriteFastPath; got != 1 {
		t.Fatalf("overwrite fast path count = %d, want 1", got)
	}
	if v, ok := s.Get(5); !ok || string(v) != "five" {
		t.Fatalf("fast-path overwrite lost: %q %v", v, ok)
	}
	// Absent key: no transaction, no tier, found=false.
	if found, err := s.Delete(99); err != nil || found {
		t.Fatalf("Delete(absent) = %v, %v", found, err)
	}
	// The split left leaves of 8 (keys 1-8) and 9 (keys 9-17) records;
	// minLeaf is 8. Deleting from the 9-record leaf shrinks in place...
	if found, err := s.Delete(17); err != nil || !found {
		t.Fatalf("Delete(17) = %v, %v", found, err)
	}
	if got := s.Stats().StripeLatchFallbacks; got != 1 {
		t.Fatalf("non-underflowing delete took the structural tier (fallbacks=%d)", got)
	}
	// ...but the next delete there would underflow: structural tier.
	if found, err := s.Delete(16); err != nil || !found {
		t.Fatalf("Delete(16) = %v, %v", found, err)
	}
	if got := s.Stats().StripeLatchFallbacks; got != 2 {
		t.Fatalf("underflowing delete fallbacks = %d, want 2", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 15 {
		t.Fatalf("Len = %d, want 15", s.Len())
	}
}

// TestLatchSpanExcludesCommitWait proves the tentpole's latch-hold claim
// with device counters: from the moment a fast-path Put starts until its
// commit publish fires (the instant every latch releases), the device sees
// ZERO fences — the entire fence bill lands after publish, outside every
// latch, where concurrent writers can overlap it.
func TestLatchSpanExcludesCommitWait(t *testing.T) {
	s := newKV(t, 1, false) // no group commit: Commit flushes per commit
	if err := s.Put(1, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	fired := false
	var fencesAtPublish int64
	publishHook = func() {
		fired = true
		fencesAtPublish = s.Rewind().Stats().Fences
	}
	defer func() { publishHook = nil }()

	start := s.Rewind().Stats().Fences
	if err := s.Put(1, []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	end := s.Rewind().Stats().Fences
	if !fired {
		t.Fatal("publish hook never fired: the write skipped the fine path")
	}
	if fencesAtPublish != start {
		t.Fatalf("latched span contained %d fences; the commit wait leaked inside the latches",
			fencesAtPublish-start)
	}
	if end == fencesAtPublish {
		t.Fatal("no fence after publish: the commit was not made durable outside the latch")
	}
	if got := s.Stats().OverwriteFastPath; got != 1 {
		t.Fatalf("probe write took fast path %d times, want 1", got)
	}
}

// TestSingleStripeBatchPinned: a BATCH whose keys all land in one stripe
// skips the multi-stripe protocol and commits on that stripe's pinned log
// shard — observable in the per-shard commit counters.
func TestSingleStripeBatchPinned(t *testing.T) {
	s := newKV(t, 4, false)
	n := s.Rewind().NumShards()
	want := 1 % n // stripe 1's pinned shard
	before := make([]int64, n)
	for i, sh := range s.Rewind().ShardStats() {
		before[i] = sh.Commits
	}
	// Keys 1, 5, 9 all hash to stripe 1 of 4.
	err := s.Batch([]Op{
		{Key: 1, Value: []byte("a")},
		{Key: 5, Value: []byte("b")},
		{Key: 9, Value: []byte("c")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.Rewind().ShardStats() {
		d := sh.Commits - before[i]
		if i == want && d != 1 {
			t.Fatalf("pinned shard %d got %d commits, want 1", i, d)
		}
		if i != want && d != 0 {
			t.Fatalf("shard %d got %d commits; single-stripe batch was not pinned", i, d)
		}
	}
	for _, k := range []uint64{1, 5, 9} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("batched key %d missing", k)
		}
	}
	// A failing op still rolls the whole single-stripe batch back.
	if err := s.Batch([]Op{
		{Key: 13, Value: []byte("d")},
		{Key: 17, Value: make([]byte, 1000)},
	}); err != ErrValueTooLarge {
		t.Fatalf("oversized single-stripe batch error = %v", err)
	}
	if _, ok := s.Get(13); ok {
		t.Fatal("failed single-stripe batch leaked an op")
	}
	// Multi-stripe batches still take the coarse path and apply atomically.
	if err := s.Batch([]Op{
		{Key: 2, Value: []byte("x")},
		{Key: 3, Value: []byte("y")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(2); !ok {
		t.Fatal("multi-stripe batch lost an op")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSerialWritesEscapeHatch: Config.SerialWrites routes everything back
// through the coarse stripe-exclusive path — behaviourally identical, with
// the fine-path counters staying at zero.
func TestSerialWritesEscapeHatch(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 2, MaxValue: 64, SerialWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 40; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(7, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if found, err := s.Delete(8); err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if err := s.Batch([]Op{{Key: 2, Value: []byte("b")}, {Key: 4, Value: []byte("d")}}); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
	if got.OverwriteFastPath != 0 || got.StripeLatchFallbacks != 0 || got.LeafLatchWaits != 0 {
		t.Fatalf("serial writes touched the fine path: %+v", got)
	}
	if v, ok := s.Get(7); !ok || string(v) != "again" {
		t.Fatalf("serial overwrite = %q, %v", v, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverwriteFastPathCrashMatrix injects a crash before EVERY durable
// operation of a CAS-overwrite fast-path Put, in both commit modes, and
// checks after recovery that the overwrite is all-or-none (the record is
// exactly the old or exactly the new value, never a mix), that every acked
// write survives, and that an acked delete stays deleted (no
// resurrection).
func TestOverwriteFastPathCrashMatrix(t *testing.T) {
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		name := "UndoRedo"
		if mode == rewind.RedoOnly {
			name = "RedoOnly"
		}
		t.Run(name, func(t *testing.T) {
			n := crashtest.Explore(t, crashCase(rewind.Options{
				ArenaSize: 32 << 20, GroupCommit: true, GroupCommitWindow: 0, GroupCommitMax: 1,
				CommitMode: mode,
			}, Config{Stripes: 2, MaxValue: 64}, nil, func() crashtest.Model[*Store] { return &overwriteRun{} }))
			if n < 2 {
				t.Fatalf("only %d durable operations in the overwrite; injection is not covering it", n)
			}
		})
	}
}

type overwriteRun struct {
	md   crashtest.KVModel
	fast int64 // the store's fast-path count once the overwrite returned
}

func (r *overwriteRun) Run(s *Store, arm func()) error {
	// Acked phase: all durable whatever happens later. Key 11 is deleted
	// again — its resurrection after the crash would be a recovery bug.
	for k := uint64(1); k <= 11; k++ {
		r.md.Plan(crashtest.Put(k, []byte(fmt.Sprintf("acked-%d", k))))
	}
	r.md.Plan(crashtest.Del(11))
	for r.md.Issued < len(r.md.Ops) {
		if err := r.md.Send(apply(s)); err != nil {
			return err
		}
	}
	arm()
	r.md.Plan(crashtest.Put(3, []byte("overwritten-by-fast-path")))
	if err := r.md.Send(apply(s)); err != nil {
		return fmt.Errorf("overwrite rejected: %v", err)
	}
	r.fast = s.Stats().OverwriteFastPath
	return nil
}

func (r *overwriteRun) Check(s *Store, crashed bool) error {
	if !crashed && r.fast != 1 {
		return fmt.Errorf("probe Put did not take the overwrite fast path")
	}
	return r.md.Check(s)
}

// TestOnlyOverwritesPipeline pins which mutations leave kv ahead of their
// flush: overwrites of existing keys publish and return — four of them cost
// no fence until somebody waits, and then one — while a Put that inserts
// and a Delete that removes have been waited for when they return.
func TestOnlyOverwritesPipeline(t *testing.T) {
	// GroupSize as the daemon sets it, so the log's own record-count flush
	// stays out of the fence counts below.
	st, err := rewind.Open(rewind.Options{ArenaSize: 32 << 20, GroupCommit: true, GroupSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 1, MaxValue: 64})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		if err := s.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	fences := func() int64 { return s.Rewind().Stats().Fences }

	f0 := fences()
	var last rewind.Ticket
	for k := uint64(1); k <= 4; k++ {
		tk, err := s.PublishPut(k, []byte("new"), nil)
		if err != nil {
			t.Fatal(err)
		}
		last = tk
	}
	if got := fences() - f0; got != 0 {
		t.Fatalf("4 published overwrites issued %d fences before anybody waited", got)
	}
	s.WaitDurable(last, nil)
	if got := fences() - f0; got != 1 {
		t.Fatalf("4 pipelined overwrites cost %d fences, want 1", got)
	}

	f0 = fences()
	tk, err := s.PublishPut(5, []byte("fresh"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fences() == f0 {
		t.Fatal("an inserting Put came back before its flush")
	}
	f0 = fences()
	if s.WaitDurable(tk, nil); fences() != f0 {
		t.Fatal("an inserting Put's ticket was not durable on return")
	}
	if found, tk, err := s.PublishDelete(5, nil); err != nil || !found {
		t.Fatalf("PublishDelete(5) = %v, %v", found, err)
	} else if f1 := fences(); f1 == f0 {
		t.Fatal("a removing Delete came back before its flush")
	} else if s.WaitDurable(tk, nil); fences() != f1 {
		t.Fatal("a removing Delete's ticket was not durable on return")
	}
}
