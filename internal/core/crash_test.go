package core

import (
	"fmt"
	"testing"

	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// The transaction manager's crash matrices, on the crash explorer: each
// crashes its workload before every durable operation in turn and recovers,
// then crashes that recovery and recovers again (DESIGN.md §1).

// opened is a manager crashCase's Open recovered, with what recovery
// reported.
type opened struct {
	tm *TM
	rs *RecoveryStats
}

// crashCase builds a manager with cfg on a fresh arena, lets setup lay out
// the data its workload writes, and reopens it with pmem.Open and Open.
func crashCase(cfg Config, setup func(a *pmem.Allocator), model func() crashtest.Model[opened]) crashtest.Case[opened] {
	return crashtest.Case[opened]{
		Setup: func() (*nvm.Memory, error) {
			m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			if _, err := New(a, cfg); err != nil {
				return nil, err
			}
			setup(a)
			return m, nil
		},
		Open: func(m *nvm.Memory) (opened, error) {
			a, err := pmem.Open(m)
			if err != nil {
				return opened{}, err
			}
			tm, rs, err := Open(a, cfg)
			return opened{tm, rs}, err
		},
		Model: model,
	}
}

// region describes n words at base holding old+i before a transaction and
// new+i after it.
type region struct {
	name     string
	base     uint64
	n        int
	old, new uint64
}

// allOrNone checks that r reads all old or all new — all new when
// mustBeNew, all old when mustBeOld.
func (r region) allOrNone(m *nvm.Memory, mustBeNew, mustBeOld bool) error {
	first := m.Load64(r.base)
	isNew := first == r.new
	switch {
	case !isNew && first != r.old:
		return fmt.Errorf("%s word0 = %d: neither old nor new", r.name, first)
	case mustBeNew && !isNew:
		return fmt.Errorf("%s lost committed data", r.name)
	case mustBeOld && isNew:
		return fmt.Errorf("%s kept uncommitted data", r.name)
	}
	want := r.old
	if isNew {
		want = r.new
	}
	for i := uint64(0); i < uint64(r.n); i++ {
		if got := m.Load64(r.base + i*8); got != want+i {
			return fmt.Errorf("%s torn: word %d = %d, want %d", r.name, i, got, want+i)
		}
	}
	return nil
}

// image returns r's new values as bytes.
func (r region) image() []byte {
	vals := make([]uint64, r.n)
	for i := range vals {
		vals[i] = r.new + uint64(i)
	}
	return bytesImage(vals)
}

// regions lays out one region per old value, n words each.
func regions(a *pmem.Allocator, n int, old ...uint64) []region {
	out := make([]region, len(old))
	for i, o := range old {
		out[i] = region{fmt.Sprintf("t%d", i+1), dataBlock(a, n, o), n, o, o + 100}
	}
	return out
}

// usable checks that a recovered manager takes a new transaction.
func usable(tm *TM, r region) error {
	x := tm.Begin()
	if err := x.WriteBytes(r.base, r.image()); err != nil {
		return fmt.Errorf("post-recovery write: %v", err)
	}
	if err := x.Commit(); err != nil {
		return fmt.Errorf("post-recovery commit: %v", err)
	}
	return nil
}

// threeTxns runs the end-to-end workload: t1 commits, t2 rolls back and t3
// is left running, each over its own 4-word region, with word writes. After
// recovery each is all-or-none, t1 all new once its Commit returned, t2 and
// t3 all old.
type threeTxns struct {
	rs        []region
	sharded   bool
	committed bool
}

func (w *threeTxns) Run(o opened, arm func()) error {
	arm()
	tm := o.tm
	t1, t2, t3 := tm.Begin(), tm.Begin(), tm.Begin()
	if w.sharded && (tm.ShardOf(t1.ID()) == tm.ShardOf(t2.ID()) || tm.ShardOf(t2.ID()) == tm.ShardOf(t3.ID())) {
		return fmt.Errorf("test transactions share a shard")
	}
	for i := uint64(0); i < 4; i++ {
		for j, x := range []*Txn{t1, t2, t3} {
			if err := x.Write64(w.rs[j].base+i*8, w.rs[j].new+i); err != nil {
				return err
			}
		}
	}
	if err := t1.Commit(); err != nil {
		return err
	}
	w.committed = true
	return t2.Rollback()
}

func (w *threeTxns) Check(o opened, crashed bool) error {
	for i, r := range w.rs {
		if err := r.allOrNone(o.tm.Mem(), i == 0 && w.committed, i > 0); err != nil {
			return err
		}
	}
	return usable(o.tm, w.rs[0])
}

// TestCrashAtEveryPointEndToEnd is the system-level atomicity check: a
// three-transaction workload (commit / rollback / in-flight) is crashed at
// every durable-operation boundary; after recovery each transaction must be
// all-or-nothing, a transaction whose Commit returned must be all-new, and
// the rolled-back and in-flight transactions must be all-old.
func TestCrashAtEveryPointEndToEnd(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			var rs []region
			crashtest.Explore(t, crashCase(cfg, func(a *pmem.Allocator) { rs = regions(a, 4, 10, 20, 30) },
				func() crashtest.Model[opened] { return &threeTxns{rs: rs} }))
		})
	}
}

// TestShardedCrashMatrix is the sharded version of the end-to-end crash
// matrix: three transactions on three different shards (committed, rolled
// back, left running), crashed before every durable operation in turn.
func TestShardedCrashMatrix(t *testing.T) {
	for _, cfg := range shardConfigs(4) {
		// One recovery worker: a crash injected into a worker goroutine
		// would take the test binary down.
		cfg.RecoveryWorkers = 1
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			var rs []region
			crashtest.Explore(t, crashCase(cfg, func(a *pmem.Allocator) { rs = regions(a, 4, 10, 20, 30) },
				func() crashtest.Model[opened] { return &threeTxns{rs: rs, sharded: true} }))
		})
	}
}

// spanConfigs is the crash-matrix design space the span refactor must
// cover: every one-layer log kind under both policies. (The two-layer
// configuration stores span records in the AAVLT through the same
// appendShard path; the all-config rollback test covers it.)
func spanConfigs() []Config {
	var out []Config
	for _, kind := range []rlog.Kind{rlog.Simple, rlog.Optimized, rlog.Batch} {
		for _, policy := range []Policy{NoForce, Force} {
			out = append(out, Config{Policy: policy, Layers: OneLayer, LogKind: kind,
				BucketSize: 16, GroupSize: 4, RootBase: rootBase})
		}
	}
	return out
}

// twoSpans writes a 10-word span in t1, which commits, and another in t2,
// left in flight: t1 is all new once Commit returned, t2 always all old.
type twoSpans struct {
	rs        []region
	committed bool
}

func (w *twoSpans) Run(o opened, arm func()) error {
	arm()
	t1, t2 := o.tm.Begin(), o.tm.Begin()
	if err := t1.WriteBytes(w.rs[0].base, w.rs[0].image()); err != nil {
		return err
	}
	if err := t2.WriteBytes(w.rs[1].base, w.rs[1].image()); err != nil {
		return err
	}
	if err := t1.Commit(); err != nil {
		return err
	}
	w.committed = true
	return nil
}

func (w *twoSpans) Check(o opened, crashed bool) error {
	if err := w.rs[0].allOrNone(o.tm.Mem(), w.committed, false); err != nil {
		return err
	}
	if err := w.rs[1].allOrNone(o.tm.Mem(), false, true); err != nil {
		return err
	}
	// The recovered manager must be fully usable, spans included.
	return usable(o.tm, w.rs[0])
}

// TestSpanCrashMatrix: a transaction performs a multi-word transactional
// write (one span record), the device crashes before every durable
// operation in turn — for all three LogKinds under Force and NoForce — and
// recovery must restore either all of the span or none of it. A second,
// committed span transaction must always be all-new once Commit returned,
// and a third left in flight must always be all-old. Every recovery is
// crashed again before each of its own durable operations.
func TestSpanCrashMatrix(t *testing.T) {
	for _, cfg := range spanConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			var rs []region
			c := crashCase(cfg, func(a *pmem.Allocator) { rs = regions(a, 10, 10, 30) },
				func() crashtest.Model[opened] { return &twoSpans{rs: rs} })
			c.EveryRecoveryPoint = true
			crashtest.Explore(t, c)
		})
	}
}

// oneTxn commits one transaction over a region, as one span or word by
// word — the first word written twice, so undo compensates it twice and a
// crash between the two leaves two CLRs of one word for the next recovery;
// the region is all-or-none after recovery, all new once Commit returned.
type oneTxn struct {
	r         region
	span      bool
	committed bool
}

func (w *oneTxn) Run(o opened, arm func()) error {
	arm()
	x := o.tm.Begin()
	if w.span {
		if err := x.WriteBytes(w.r.base, w.r.image()); err != nil {
			return err
		}
	} else {
		if err := x.Write64(w.r.base, w.r.new+1000); err != nil { // a scratch value first
			return err
		}
		for i := uint64(0); i < uint64(w.r.n); i++ {
			if err := x.Write64(w.r.base+i*8, w.r.new+i); err != nil {
				return err
			}
		}
	}
	if err := x.Commit(); err != nil {
		return err
	}
	w.committed = true
	return nil
}

func (w *oneTxn) Check(o opened, crashed bool) error {
	return w.r.allOrNone(o.tm.Mem(), w.committed, false)
}

// doubleCrash crashes a one-transaction commit before every durable
// operation, and the recovery of each of those states before every one of
// its own: recovery converges whichever of its steps a crash cut short.
func doubleCrash(t *testing.T, cfgs []Config, words int, span bool) {
	for _, cfg := range cfgs {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			var r region
			c := crashCase(cfg, func(a *pmem.Allocator) { r = regions(a, words, 10)[0] },
				func() crashtest.Model[opened] { return &oneTxn{r: r, span: span} })
			c.EveryRecoveryPoint = true
			crashtest.Explore(t, c)
		})
	}
}

// TestDoubleCrashDuringRecovery crashes recovery itself at every point, in
// every configuration, and verifies convergence.
func TestDoubleCrashDuringRecovery(t *testing.T) { doubleCrash(t, testConfigs(), 4, false) }

// TestSpanDoubleCrashDuringRecovery crashes recovery of a torn span state
// at every point and verifies convergence (span CLR redo included).
func TestSpanDoubleCrashDuringRecovery(t *testing.T) { doubleCrash(t, spanConfigs(), 6, true) }

// redoOnlyConfigs are the regimes the redo-only crash matrix sweeps: the
// headline NoForce/Batch pair with and without group commit, plus both
// policies on the Optimized log (Force exercises the END-before-data commit
// ordering, whose redo pass must replay a winner whose NT stores the crash
// cut short).
func redoOnlyConfigs() []Config {
	return []Config{
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, CommitMode: RedoOnly,
			BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, CommitMode: RedoOnly,
			BucketSize: 16, GroupSize: 4, GroupCommit: true, GroupCommitWindow: -1, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, CommitMode: RedoOnly,
			BucketSize: 16, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, CommitMode: RedoOnly,
			BucketSize: 16, RootBase: rootBase},
	}
}

// redoOnlyTxns: t1 is a multi-op buffered transaction — two spans, a
// single word between them and a deferred deallocation — that commits; t2
// writes and rolls back; t3 is left in flight.
type redoOnlyTxns struct {
	rs        []region
	committed bool
}

func (w *redoOnlyTxns) Run(o opened, arm func()) error {
	arm()
	tm, d1 := o.tm, w.rs[0]
	t1, t2, t3 := tm.Begin(), tm.Begin(), tm.Begin()
	// t1's two spans and the lone word become separate redo records at
	// commit; together they write every word of its region once or twice.
	last := uint64(d1.n - 1)
	if err := t1.WriteBytes(d1.base, d1.image()); err != nil {
		return err
	}
	if err := t1.Write64(d1.base+last*8, d1.new+last); err != nil {
		return err
	}
	inner := region{base: d1.base + 8, n: d1.n - 2, new: d1.new + 1}
	if err := t1.WriteBytes(inner.base, inner.image()); err != nil {
		return err
	}
	if err := t1.Free(tm.Alloc().Alloc(64)); err != nil {
		return err
	}
	// t2 writes and rolls back: a pure buffer discard, no log traffic,
	// nothing for the crash to tear.
	if err := t2.WriteBytes(w.rs[1].base, w.rs[1].image()); err != nil {
		return err
	}
	if err := t2.Rollback(); err != nil {
		return err
	}
	// t3 left in flight: its buffer dies with the process.
	if err := t3.WriteBytes(w.rs[2].base, w.rs[2].image()); err != nil {
		return err
	}
	if err := t1.Commit(); err != nil {
		return err
	}
	w.committed = true
	return nil
}

func (w *redoOnlyTxns) Check(o opened, crashed bool) error {
	if o.rs.Undone != 0 || o.rs.CLRRecords != 0 {
		return fmt.Errorf("redo-only recovery did undo work: Undone=%d CLRRecords=%d", o.rs.Undone, o.rs.CLRRecords)
	}
	m, d1 := o.tm.Mem(), w.rs[0]
	if err := d1.allOrNone(m, w.committed, false); err != nil {
		return err
	}
	// t2 (rolled back) and t3 (in flight) must never surface.
	for _, r := range w.rs[1:] {
		if err := r.allOrNone(m, false, true); err != nil {
			return err
		}
	}
	// The recovered manager must be fully usable in the same mode.
	x := o.tm.Begin()
	if err := x.WriteBytes(d1.base, d1.image()); err != nil {
		return fmt.Errorf("post-recovery write: %v", err)
	}
	if got := x.Read64(d1.base); got != d1.new {
		return fmt.Errorf("post-recovery read-your-writes: %d", got)
	}
	if err := x.Commit(); err != nil {
		return fmt.Errorf("post-recovery commit: %v", err)
	}
	return nil
}

// TestRedoOnlyCrashMatrix is the redo-only counterpart of
// TestSpanCrashMatrix, across Batch (with and without group commit) and
// Optimized under both policies. Whatever the crash point, recovery must
// land t1 all-or-none; once its Commit returned, all new
// (read-your-acked-writes); the rolled-back t2 and the in-flight t3 must
// never leak a single word — their writes only ever existed in private
// buffers. Recovery itself must do zero undo work.
func TestRedoOnlyCrashMatrix(t *testing.T) {
	for _, cfg := range redoOnlyConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			var rs []region
			crashtest.Explore(t, crashCase(cfg, func(a *pmem.Allocator) { rs = regions(a, 10, 10, 30, 50) },
				func() crashtest.Model[opened] { return &redoOnlyTxns{rs: rs} }))
		})
	}
}

// foldedEnds: t1 and t2 each write one span on the same shard and commit,
// t3's span stays in flight. t2's span goes durable at a checkpoint before
// t2 commits, so its END must be a record of its own; t1 writes after the
// checkpoint, with t3's span appended behind its own, so its END folds into
// a pending record that is not the log's newest. After recovery each is
// all-or-none, t1 and t2 all new once WaitDurable returned, t3 all old.
type foldedEnds struct {
	rs    []region
	acked [2]bool
}

func (w *foldedEnds) Run(o opened, arm func()) error {
	arm()
	tm := o.tm
	t1, t2, t3 := tm.Begin(), tm.Begin(), tm.Begin()
	if err := t2.WriteBytes(w.rs[1].base, w.rs[1].image()); err != nil {
		return err
	}
	tm.Checkpoint()
	for i, x := range []*Txn{t1, t3} {
		r := w.rs[2*i]
		if err := x.WriteBytes(r.base, r.image()); err != nil {
			return err
		}
	}
	var tickets [2]Ticket
	for i, x := range []*Txn{t1, t2} {
		before := tm.Stats().Records
		tk, err := x.Publish()
		if err != nil {
			return err
		}
		if logged, want := tm.Stats().Records-before, int64(i); logged != want {
			return fmt.Errorf("t%d's commit logged %d records, want %d", i+1, logged, want)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		tm.WaitDurable(tk, nil)
		w.acked[i] = true
	}
	return nil
}

func (w *foldedEnds) Check(o opened, crashed bool) error {
	m := o.tm.Mem()
	for i, r := range w.rs {
		if err := r.allOrNone(m, i < 2 && w.acked[i], i == 2); err != nil {
			return err
		}
	}
	return usable(o.tm, w.rs[0])
}

// TestFoldedEndCrashMatrix crashes commits whose END is folded into their
// last record, beside one whose END could not fold, before every durable
// operation in turn, with and without group commit: a folded END goes
// durable with its record or not at all, and recovery counts it as the END.
func TestFoldedEndCrashMatrix(t *testing.T) {
	for _, gc := range []bool{false, true} {
		cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch,
			BucketSize: 16, GroupSize: 4, GroupCommit: gc, GroupCommitWindow: -1, RootBase: rootBase}
		t.Run(cfg.String()+fmt.Sprintf("/gc=%v", gc), func(t *testing.T) {
			t.Parallel()
			var rs []region
			crashtest.Explore(t, crashCase(cfg, func(a *pmem.Allocator) { rs = regions(a, 3, 10, 20, 30) },
				func() crashtest.Model[opened] { return &foldedEnds{rs: rs} }))
		})
	}
}
