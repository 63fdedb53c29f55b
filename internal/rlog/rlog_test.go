package rlog

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

const testSlot = 1

func newEnv(t testing.TB) (*nvm.Memory, *pmem.Allocator) {
	t.Helper()
	m := nvm.New(nvm.Config{Size: 32 << 20, TrackPersistence: true})
	return m, pmem.Format(m)
}

func newLog(t testing.TB, kind Kind) (*nvm.Memory, *pmem.Allocator, *Log) {
	t.Helper()
	m, a := newEnv(t)
	l := New(a, Config{Kind: kind, BucketSize: 16, GroupSize: 4, RootSlot: testSlot})
	return m, a, l
}

func makeRecord(a *pmem.Allocator, lsn uint64) Record {
	return Alloc(a, Fields{LSN: lsn, Txn: lsn % 5, Type: TypeUpdate, Flags: FlagUndoable,
		Addr: 0x1000 + lsn*8, Old: lsn, New: lsn + 1})
}

func collectLSNs(l *Log, backward bool) []uint64 {
	var out []uint64
	var it *Iter
	if backward {
		it = l.End()
		for it.Prev() {
			out = append(out, it.Record().LSN())
		}
	} else {
		it = l.Begin()
		for it.Next() {
			out = append(out, it.Record().LSN())
		}
	}
	it.Close()
	return out
}

func wantLSNs(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: lsn %d, want %d (%v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

var allKinds = []Kind{Simple, Optimized, Batch}

func TestRecordFieldsRoundTrip(t *testing.T) {
	_, a := newEnv(t)
	f := Fields{LSN: 7, Txn: 3, Type: TypeCLR, Flags: FlagUndoable, Addr: 0xabc0,
		Old: 11, New: 22, UndoNext: 5, PrevTxn: 0xdef0}
	r := Alloc(a, f)
	if r.LSN() != 7 || r.Txn() != 3 || r.Type() != TypeCLR || r.Flags() != FlagUndoable ||
		r.Target() != 0xabc0 || r.Old() != 11 || r.New() != 22 || r.UndoNext() != 5 ||
		r.PrevTxn() != 0xdef0 {
		t.Fatalf("field mismatch: %v", r)
	}
	if !r.Undoable() {
		t.Fatal("Undoable flag lost")
	}
}

func TestRecordDurableAfterAlloc(t *testing.T) {
	m, a := newEnv(t)
	r := Alloc(a, Fields{LSN: 9, Type: TypeUpdate, Addr: 0x10, Old: 1, New: 2})
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	r2 := View(m, r.Addr)
	if r2.LSN() != 9 || r2.Old() != 1 || r2.New() != 2 {
		t.Fatalf("record fields lost on crash: %v", r2)
	}
}

func TestRecordDeferredNotDurableUntilFlushed(t *testing.T) {
	m, a := newEnv(t)
	r := AllocDeferred(a, Fields{LSN: 9, Type: TypeUpdate})
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := View(m, r.Addr).LSN(); got != 0 {
		t.Fatalf("deferred record durable without flush: lsn=%d", got)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeUpdate: "UPDATE", TypeCLR: "CLR", TypeEnd: "END",
		TypeRollback: "ROLLBACK", TypeCheckpoint: "CHECKPOINT", TypeDelete: "DELETE",
		Type(99): "Type(99)",
	} {
		if got := ty.String(); got != want {
			t.Errorf("Type %d = %q, want %q", uint32(ty), got, want)
		}
	}
	for k, want := range map[Kind]string{Simple: "Simple", Optimized: "Optimized", Batch: "Batch", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind = %q, want %q", got, want)
		}
	}
}

func TestAppendAndIterateAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, a, l := newLog(t, kind)
			want := []uint64{}
			for i := uint64(1); i <= 50; i++ { // crosses bucket boundaries (size 16)
				l.Append(makeRecord(a, i).Addr, false)
				want = append(want, i)
			}
			if got := l.Len(); got != 50 {
				t.Fatalf("Len = %d, want 50", got)
			}
			wantLSNs(t, collectLSNs(l, false), want)
			rev := make([]uint64, len(want))
			for i := range want {
				rev[i] = want[len(want)-1-i]
			}
			wantLSNs(t, collectLSNs(l, true), rev)
		})
	}
}

func TestEmptyLogIteration(t *testing.T) {
	for _, kind := range allKinds {
		_, _, l := newLog(t, kind)
		if got := collectLSNs(l, false); len(got) != 0 {
			t.Fatalf("%v: forward over empty log: %v", kind, got)
		}
		if got := collectLSNs(l, true); len(got) != 0 {
			t.Fatalf("%v: backward over empty log: %v", kind, got)
		}
		if !l.Empty() {
			t.Fatalf("%v: Empty() = false", kind)
		}
	}
}

func TestIteratorExhaustionSticks(t *testing.T) {
	_, a, l := newLog(t, Optimized)
	l.Append(makeRecord(a, 1).Addr, false)
	it := l.Begin()
	defer it.Close()
	if !it.Next() || it.Next() {
		t.Fatal("expected exactly one record")
	}
	if it.Next() {
		t.Fatal("exhausted iterator restarted")
	}
}

func TestClearScanRemovesSelected(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, a, l := newLog(t, kind)
			for i := uint64(1); i <= 40; i++ {
				l.Append(makeRecord(a, i).Addr, false)
			}
			// Remove the even records.
			l.ClearScan(true, func(r Record) ClearAction {
				if r.LSN()%2 == 0 {
					return RemoveFree
				}
				return Keep
			})
			if got := l.Len(); got != 20 {
				t.Fatalf("Len after clear = %d, want 20", got)
			}
			want := []uint64{}
			for i := uint64(1); i <= 40; i += 2 {
				want = append(want, i)
			}
			wantLSNs(t, collectLSNs(l, false), want)
		})
	}
}

func TestClearScanStop(t *testing.T) {
	_, a, l := newLog(t, Optimized)
	for i := uint64(1); i <= 10; i++ {
		l.Append(makeRecord(a, i).Addr, false)
	}
	visited := 0
	l.ClearScan(true, func(r Record) ClearAction {
		visited++
		if r.LSN() == 8 {
			return Stop
		}
		return Remove
	})
	if visited != 3 { // 10, 9, 8
		t.Fatalf("visited %d records, want 3", visited)
	}
	if got := l.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
}

func TestEmptiedBucketIsRemoved(t *testing.T) {
	_, a, l := newLog(t, Optimized)
	for i := uint64(1); i <= 48; i++ { // 3 buckets of 16
		l.Append(makeRecord(a, i).Addr, false)
	}
	if got := l.Buckets(); got != 3 {
		t.Fatalf("buckets = %d, want 3", got)
	}
	// Clear the whole middle bucket (records 17..32).
	l.ClearScan(false, func(r Record) ClearAction {
		if r.LSN() >= 17 && r.LSN() <= 32 {
			return RemoveFree
		}
		return Keep
	})
	if got := l.Buckets(); got != 2 {
		t.Fatalf("buckets after clearing middle = %d, want 2", got)
	}
	// The active tail bucket is never removed, even when emptied.
	l.ClearScan(false, func(r Record) ClearAction {
		if r.LSN() > 32 {
			return RemoveFree
		}
		return Keep
	})
	if got := l.Buckets(); got != 2 {
		t.Fatalf("tail bucket was removed: buckets = %d, want 2", got)
	}
	// And its cells are reusable afterwards.
	l.Append(makeRecord(a, 100).Addr, false)
	lsns := collectLSNs(l, false)
	if lsns[len(lsns)-1] != 100 {
		t.Fatalf("append after clearing tail bucket: %v", lsns)
	}
}

func TestResetSwapsAndFrees(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, a, l := newLog(t, kind)
			for i := uint64(1); i <= 40; i++ {
				l.Append(makeRecord(a, i).Addr, false)
			}
			oldHdr := l.HeaderAddr()
			l.Reset(true)
			if l.HeaderAddr() == oldHdr {
				t.Fatal("Reset did not swap the header")
			}
			if a.Root(testSlot) != l.HeaderAddr() {
				t.Fatal("root slot not updated")
			}
			if !l.Empty() {
				t.Fatalf("log not empty after Reset: %d", l.Len())
			}
			// The log remains usable.
			l.Append(makeRecord(a, 7).Addr, false)
			wantLSNs(t, collectLSNs(l, false), []uint64{7})
		})
	}
}

func TestBatchGroupFlushBoundaries(t *testing.T) {
	m, a := newEnv(t)
	l := New(a, Config{Kind: Batch, BucketSize: 16, GroupSize: 4, RootSlot: testSlot})
	recs := make([]Record, 0, 6)
	flushes := make([]bool, 0, 6)
	for i := uint64(1); i <= 6; i++ {
		r := AllocDeferred(a, Fields{LSN: i, Type: TypeUpdate})
		recs = append(recs, r)
		flushes = append(flushes, l.Append(r.Addr, false))
	}
	want := []bool{false, false, false, true, false, false}
	for i := range want {
		if flushes[i] != want[i] {
			t.Fatalf("append %d flushed=%v, want %v (%v)", i+1, flushes[i], want[i], flushes)
		}
	}
	// Crash: only the first group (4 records) must survive.
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(a, Config{Kind: Batch, BucketSize: 16, GroupSize: 4, RootSlot: testSlot})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, collectLSNs(l2, false), []uint64{1, 2, 3, 4})
	_ = recs
}

func TestBatchEndForcesFlush(t *testing.T) {
	m, a := newEnv(t)
	l := New(a, Config{Kind: Batch, BucketSize: 16, GroupSize: 8, RootSlot: testSlot})
	r1 := AllocDeferred(a, Fields{LSN: 1, Type: TypeUpdate})
	l.Append(r1.Addr, false)
	rEnd := AllocDeferred(a, Fields{LSN: 2, Type: TypeEnd})
	if !l.Append(rEnd.Addr, true) {
		t.Fatal("END did not force a flush")
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(a, Config{Kind: Batch, BucketSize: 16, GroupSize: 8, RootSlot: testSlot})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, collectLSNs(l2, false), []uint64{1, 2})
}

func TestBatchForceFlush(t *testing.T) {
	m, a := newEnv(t)
	l := New(a, Config{Kind: Batch, BucketSize: 16, GroupSize: 8, RootSlot: testSlot})
	for i := uint64(1); i <= 3; i++ {
		l.Append(AllocDeferred(a, Fields{LSN: i, Type: TypeUpdate}).Addr, false)
	}
	l.ForceFlush()
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(a, Config{Kind: Batch, BucketSize: 16, GroupSize: 8, RootSlot: testSlot})
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, collectLSNs(l2, false), []uint64{1, 2, 3})
}

func TestBatchFewerFencesThanOptimized(t *testing.T) {
	mOpt, aOpt := newEnv(t)
	lOpt := New(aOpt, Config{Kind: Optimized, BucketSize: 100, RootSlot: testSlot})
	baseOpt := mOpt.Stats()
	for i := uint64(1); i <= 64; i++ {
		lOpt.Append(Alloc(aOpt, Fields{LSN: i, Type: TypeUpdate}).Addr, false)
	}
	optFences := mOpt.Stats().Sub(baseOpt).Fences

	mB, aB := newEnv(t)
	lB := New(aB, Config{Kind: Batch, BucketSize: 100, GroupSize: 8, RootSlot: testSlot})
	baseB := mB.Stats()
	for i := uint64(1); i <= 64; i++ {
		lB.Append(AllocDeferred(aB, Fields{LSN: i, Type: TypeUpdate}).Addr, false)
	}
	batchFences := mB.Stats().Sub(baseB).Fences

	if batchFences*4 > optFences {
		t.Fatalf("batch fences %d not far below optimized %d", batchFences, optFences)
	}
}

func TestOpenRejectsMismatchedConfig(t *testing.T) {
	_, a, _ := newLog(t, Optimized)
	if _, err := Open(a, Config{Kind: Simple, BucketSize: 16, GroupSize: 4, RootSlot: testSlot}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := Open(a, Config{Kind: Optimized, BucketSize: 99, GroupSize: 4, RootSlot: testSlot}); err == nil {
		t.Fatal("bucket size mismatch accepted")
	}
	if _, err := Open(a, Config{Kind: Optimized, BucketSize: 16, GroupSize: 4, RootSlot: 9}); err == nil {
		t.Fatal("empty slot accepted")
	}
}

// logCase is a crash case over one log made with cfg: setup fills it once,
// and every run reopens it with pmem.Open and Open.
func logCase(cfg Config, setup func(*Log), model func() crashtest.Model[*Log]) crashtest.Case[*Log] {
	return crashtest.Case[*Log]{
		Setup: func() (*nvm.Memory, error) {
			m, a := smallEnv()
			setup(New(a, cfg))
			return m, nil
		},
		Open: func(m *nvm.Memory) (*Log, error) {
			a, err := pmem.Open(m)
			if err != nil {
				return nil, err
			}
			return Open(a, cfg)
		},
		Model: model,
	}
}

// appendN appends records lsn from..to, each in a block of its own.
func appendN(l *Log, from, to uint64) {
	for i := from; i <= to; i++ {
		l.Append(makeRecord(l.a, i).Addr, false)
	}
}

// TestCrashAtEveryPointDuringAppends is the core §3.2 recoverability check:
// a crash is injected before every successive durable operation while
// records are appended; after recovery the log must be a prefix of the
// appended sequence (atomic append: a record is either fully in or fully
// out) with correct structure in both directions.
func TestCrashAtEveryPointDuringAppends(t *testing.T) {
	for _, kind := range []Kind{Simple, Optimized} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Kind: kind, BucketSize: 4, GroupSize: 2, RootSlot: testSlot}
			crashtest.Explore(t, logCase(cfg, func(*Log) {}, func() crashtest.Model[*Log] {
				return crashtest.Funcs[*Log]{
					Workload: func(l *Log, arm func()) error { arm(); appendN(l, 1, 10); return nil },
					Verify: func(l *Log, crashed bool) error {
						got := collectLSNs(l, false)
						for i, lsn := range got {
							if lsn != uint64(i+1) || (!crashed && len(got) != 10) {
								return fmt.Errorf("log not the appended prefix: %v", got)
							}
						}
						if back := collectLSNs(l, true); len(back) != len(got) {
							return fmt.Errorf("forward %d vs backward %d records", len(got), len(back))
						}
						// The recovered log must accept new appends.
						appendN(l, 100, 100)
						if n := len(collectLSNs(l, false)); n != len(got)+1 {
							return fmt.Errorf("append after recovery failed")
						}
						return nil
					},
				}
			}))
		})
	}
}

// TestCrashAtEveryPointDuringClear injects crashes through a clearing pass
// and verifies that after recovery every surviving record is intact and the
// structure iterates consistently.
func TestCrashAtEveryPointDuringClear(t *testing.T) {
	for _, kind := range []Kind{Simple, Optimized} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Kind: kind, BucketSize: 4, GroupSize: 2, RootSlot: testSlot}
			crashtest.Explore(t, logCase(cfg, func(l *Log) { appendN(l, 1, 12) }, func() crashtest.Model[*Log] {
				return crashtest.Funcs[*Log]{
					Workload: func(l *Log, arm func()) error {
						arm()
						l.ClearScan(true, func(r Record) ClearAction {
							if r.LSN()%3 == 0 {
								return RemoveFree
							}
							return Keep
						})
						return nil
					},
					Verify: func(l *Log, crashed bool) error {
						got := collectLSNs(l, false)
						seen := map[uint64]bool{}
						for i, lsn := range got {
							if lsn < 1 || lsn > 12 || seen[lsn] || (i > 0 && got[i-1] >= lsn) {
								return fmt.Errorf("corrupted or misordered record set %v", got)
							}
							seen[lsn] = true
						}
						// Records not targeted by the clear must survive.
						for lsn := uint64(1); lsn <= 12; lsn++ {
							if lsn%3 != 0 && !seen[lsn] {
								return fmt.Errorf("kept record %d lost (%v)", lsn, got)
							}
						}
						return nil
					},
				}
			}))
		})
	}
}

// TestCrashAtEveryPointDuringReset verifies the three-step clear (§4.5):
// after a crash the root points either to the fully intact old log or to
// the fresh empty one.
func TestCrashAtEveryPointDuringReset(t *testing.T) {
	cfg := Config{Kind: Optimized, BucketSize: 4, RootSlot: testSlot}
	crashtest.Explore(t, logCase(cfg, func(l *Log) { appendN(l, 1, 10) }, func() crashtest.Model[*Log] {
		return crashtest.Funcs[*Log]{
			Workload: func(l *Log, arm func()) error { arm(); l.Reset(true); return nil },
			Verify: func(l *Log, crashed bool) error {
				if got := collectLSNs(l, false); len(got) != 0 && len(got) != 10 {
					return fmt.Errorf("reset not atomic: %d records survive", len(got))
				}
				return nil
			},
		}
	}))
}

func TestConcurrentAppends(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, a, l := newLog(t, kind)
			const goroutines = 6
			const perG = 200
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						lsn := uint64(g*perG + i + 1)
						var r Record
						if kind == Batch {
							r = AllocDeferred(a, Fields{LSN: lsn, Type: TypeUpdate})
						} else {
							r = Alloc(a, Fields{LSN: lsn, Type: TypeUpdate})
						}
						l.Append(r.Addr, false)
					}
				}(g)
			}
			wg.Wait()
			got := collectLSNs(l, false)
			if len(got) != goroutines*perG {
				t.Fatalf("appended %d, found %d", goroutines*perG, len(got))
			}
			seen := map[uint64]bool{}
			for _, lsn := range got {
				if seen[lsn] {
					t.Fatalf("duplicate record %d", lsn)
				}
				seen[lsn] = true
			}
		})
	}
}

func TestConcurrentAppendWithIterator(t *testing.T) {
	_, a, l := newLog(t, Optimized)
	for i := uint64(1); i <= 100; i++ {
		l.Append(makeRecord(a, i).Addr, false)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(101); i <= 300; i++ {
			l.Append(makeRecord(a, i).Addr, false)
		}
	}()
	// Backward scan from a snapshot tail while appends continue.
	it := l.End()
	n := 0
	for it.Prev() {
		n++
	}
	it.Close()
	<-done
	if n < 100 {
		t.Fatalf("backward scan under concurrent appends saw %d < 100 records", n)
	}
}

// TestQuickAppendClearConsistency property-tests arbitrary interleavings of
// appends and clears against a model (a plain slice).
func TestQuickAppendClearConsistency(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		f := func(ops []uint8) bool {
			m := nvm.New(nvm.Config{Size: 32 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			l := New(a, Config{Kind: kind, BucketSize: 8, GroupSize: 4, RootSlot: testSlot})
			model := []uint64{}
			next := uint64(1)
			for _, op := range ops {
				switch {
				case op%5 == 4 && len(model) > 0:
					victim := model[int(op)%len(model)]
					l.ClearScan(op%2 == 0, func(r Record) ClearAction {
						if r.LSN() == victim {
							return RemoveFree
						}
						return Keep
					})
					out := model[:0]
					for _, v := range model {
						if v != victim {
							out = append(out, v)
						}
					}
					model = out
				default:
					var r Record
					if kind == Batch {
						r = AllocDeferred(a, Fields{LSN: next, Type: TypeUpdate})
					} else {
						r = Alloc(a, Fields{LSN: next, Type: TypeUpdate})
					}
					l.Append(r.Addr, false)
					model = append(model, next)
					next++
				}
			}
			got := collectLSNs(l, false)
			if len(got) != len(model) {
				return false
			}
			for i := range model {
				if got[i] != model[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestLogStatsAccounting(t *testing.T) {
	// Optimized insertion must cost a small constant number of NVM writes
	// per record (record flush + cell store), far below Simple's.
	mS, aS := newEnv(t)
	lS := New(aS, Config{Kind: Simple, BucketSize: 16, RootSlot: testSlot})
	base := mS.Stats()
	for i := uint64(1); i <= 100; i++ {
		lS.Append(Alloc(aS, Fields{LSN: i, Type: TypeUpdate}).Addr, false)
	}
	simpleWrites := mS.Stats().Sub(base).LineWrites

	mO, aO := newEnv(t)
	lO := New(aO, Config{Kind: Optimized, BucketSize: 1000, RootSlot: testSlot})
	base = mO.Stats()
	for i := uint64(1); i <= 100; i++ {
		lO.Append(Alloc(aO, Fields{LSN: i, Type: TypeUpdate}).Addr, false)
	}
	optWrites := mO.Stats().Sub(base).LineWrites

	if optWrites >= simpleWrites {
		t.Fatalf("optimized writes %d not below simple %d", optWrites, simpleWrites)
	}
}

func BenchmarkAppend(b *testing.B) {
	for _, kind := range allKinds {
		b.Run(kind.String(), func(b *testing.B) {
			m := nvm.New(nvm.Config{Size: 1 << 30})
			a := pmem.Format(m)
			l := New(a, Config{Kind: kind, RootSlot: testSlot})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var r Record
				if kind == Batch {
					r = AllocDeferred(a, Fields{LSN: uint64(i), Type: TypeUpdate})
				} else {
					r = Alloc(a, Fields{LSN: uint64(i), Type: TypeUpdate})
				}
				l.Append(r.Addr, false)
			}
		})
	}
}
