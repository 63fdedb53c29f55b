package rlog

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

// bucketCfg makes buckets small enough to roll over within a few appends:
// four cells and a 384-byte record area.
var bucketCfg = Config{Kind: Batch, BucketSize: 4, GroupSize: 2, RootSlot: testSlot}

func smallEnv() (*nvm.Memory, *pmem.Allocator) {
	m := nvm.New(nvm.Config{Size: 1 << 20, TrackPersistence: true})
	return m, pmem.Format(m)
}

// shapedFields returns a record whose every word derives from its LSN:
// shape 0 is plain, 1 an undo/redo span and 2 a redo-only span of the given
// width.
func shapedFields(lsn uint64, shape, words int) Fields {
	f := Fields{LSN: lsn, Txn: lsn%5 + 1, Type: TypeUpdate, Flags: FlagUndoable,
		Addr: 0x4000 + lsn*512, Old: lsn * 3, New: lsn*3 + 1, UndoNext: lsn + 7}
	if shape == 0 {
		return f
	}
	f.NewSpan = make([]uint64, words)
	for i := range f.NewSpan {
		f.NewSpan[i] = lsn<<20 | uint64(i)<<1 | 1
	}
	if shape == 1 {
		f.OldSpan = make([]uint64, words)
		for i := range f.OldSpan {
			f.OldSpan[i] = lsn<<20 | uint64(i)<<1
		}
	}
	return f
}

// sameRecord reports how r differs from the record f describes, if at all.
func sameRecord(r Record, f Fields) error {
	if r.LSN() != f.LSN || r.Txn() != f.Txn || r.Type() != f.Type || r.Target() != f.Addr || r.Size() != f.size() {
		return fmt.Errorf("header %v (%d B), want lsn=%d txn=%d addr=%#x (%d B)", r, r.Size(), f.LSN, f.Txn, f.Addr, f.size())
	}
	switch {
	case len(f.OldSpan) > 0:
		for i := range f.OldSpan {
			if old, err := r.OldAt(i); err != nil || old != f.OldSpan[i] || r.NewAt(i) != f.NewSpan[i] {
				return fmt.Errorf("span word %d of %v: %#x/%#x (%v)", i, r, old, r.NewAt(i), err)
			}
		}
	case len(f.NewSpan) > 0:
		for i := range f.NewSpan {
			if r.NewAt(i) != f.NewSpan[i] {
				return fmt.Errorf("redo word %d of %v: %#x", i, r, r.NewAt(i))
			}
		}
	default:
		if r.Old() != f.Old || r.New() != f.New || r.UndoNext() != f.UndoNext {
			return fmt.Errorf("plain %v, want old=%d new=%d", r, f.Old, f.New)
		}
	}
	return nil
}

// logModel is what a crash-matrix script has asked of the log so far.
type logModel struct {
	appended map[uint64]Fields // by LSN, entered before the append starts
	durable  map[uint64]bool   // the log has reported these flushed
	cleared  map[uint64]bool   // a clearing pass or Reset was told to drop these
	ended    map[uint64]bool   // FoldEnd folded an END into these
	lsn      uint64
	last     Ref // the record AppendFields returned last
}

func newLogModel() *logModel {
	return &logModel{appended: map[uint64]Fields{}, durable: map[uint64]bool{}, cleared: map[uint64]bool{}, ended: map[uint64]bool{}}
}

func (md *logModel) flushed(yes bool) {
	if yes {
		for lsn := range md.appended {
			md.durable[lsn] = true
		}
	}
}

func (md *logModel) append(l *Log, shape, words int, end bool) {
	md.lsn++
	f := shapedFields(md.lsn, shape, words)
	md.appended[f.LSN] = f
	var flushed bool
	md.last, flushed = l.AppendFields(f, end)
	md.flushed(flushed)
}

// fold folds an END into the record appended last, if the log can.
func (md *logModel) fold(l *Log) {
	if l.FoldEnd(md.last) {
		md.ended[md.last.LSN()] = true
	}
}

// appendOwnBlock appends the way the parent commit did: the record in a
// block of its own, the log holding only its address.
func (md *logModel) appendOwnBlock(l *Log, a *pmem.Allocator, shape, words int) {
	md.lsn++
	f := shapedFields(md.lsn, shape, words)
	md.appended[f.LSN] = f
	md.flushed(l.Append(AllocDeferred(a, f).Addr, false))
}

func (md *logModel) clear(l *Log, drop func(lsn uint64) bool) {
	l.ClearScan(false, func(r Record) ClearAction {
		if !drop(r.LSN()) {
			return Keep
		}
		md.cleared[r.LSN()] = true
		return RemoveFree
	})
}

// check holds a reopened log against the model: every live record is one
// that was appended and decodes to what was appended, in LSN order, ended
// exactly when an END was folded into it; every record reported durable and
// not cleared is there; no two overlap; each bucket's rebuilt bump lies past
// its last live record and inside its block.
func (md *logModel) check(l *Log) error {
	type extent struct{ lo, hi uint64 }
	var extents []extent
	seen := map[uint64]bool{}
	last := uint64(0)
	it := l.Begin()
	for it.Next() {
		r := it.Record()
		f, ok := md.appended[r.LSN()]
		if !ok {
			it.Close()
			return fmt.Errorf("record %v was never appended", r)
		}
		if err := sameRecord(r, f); err != nil {
			it.Close()
			return err
		}
		if r.Ends() != md.ended[r.LSN()] {
			it.Close()
			return fmt.Errorf("record %v: ended %v, but FoldEnd reported %v", r, r.Ends(), md.ended[r.LSN()])
		}
		if r.LSN() <= last {
			it.Close()
			return fmt.Errorf("lsn %d follows %d", r.LSN(), last)
		}
		last = r.LSN()
		seen[last] = true
		extents = append(extents, extent{r.Addr, r.Addr + uint64(r.Size())})
	}
	it.Close()
	for lsn := range md.durable {
		if !md.cleared[lsn] && !seen[lsn] {
			return fmt.Errorf("durable record %d is gone", lsn)
		}
	}
	sort.Slice(extents, func(i, j int) bool { return extents[i].lo < extents[j].lo })
	for i := 1; i < len(extents); i++ {
		if extents[i].lo < extents[i-1].hi {
			return fmt.Errorf("records overlap: [%#x,%#x) and [%#x,%#x)", extents[i-1].lo, extents[i-1].hi, extents[i].lo, extents[i].hi)
		}
	}
	blocks := int64(0)
	for bucket := range l.states {
		blocks += int64(l.a.BlockSize(bucket))
	}
	if _, buckets, bytes := l.Occupancy(); buckets != l.Buckets() || bytes != blocks {
		return fmt.Errorf("Occupancy reports %d buckets of %d B, the list links %d of %d B", buckets, bytes, l.Buckets(), blocks)
	}
	for bucket, st := range l.states {
		if st.bump < l.areaBase(bucket) || st.bump > st.end {
			return fmt.Errorf("bucket %#x: bump %#x outside its area [%#x,%#x]", bucket, st.bump, l.areaBase(bucket), st.end)
		}
		for _, e := range extents {
			if st.owns(bucket, e.lo) && e.hi > st.bump {
				return fmt.Errorf("bucket %#x: bump %#x inside live record [%#x,%#x)", bucket, st.bump, e.lo, e.hi)
			}
		}
	}
	return nil
}

// bucketScript drives every branch of the bucket-resident layout: buckets
// that run out of cells, buckets that run out of area, a span larger than a
// whole area, a record in a block of its own amid the rest, ENDs folded into
// pending records and refused by flushed ones, a clearing pass that frees
// head buckets, one that empties the log and recycles the tail bucket,
// appends over the recycled area, and Reset.
func bucketScript(l *Log, a *pmem.Allocator, md *logModel) {
	for i := 0; i < 5; i++ { // 56-byte records: the cells run out first
		md.append(l, 0, 0, i == 2)
	}
	md.append(l, 1, 8, false) // 184-byte spans: the area runs out first
	md.fold(l)
	md.append(l, 1, 8, false)
	md.append(l, 2, 12, true)
	md.fold(l)                 // flushed: refused
	md.append(l, 1, 40, false) // 696 bytes: larger than a fresh area
	md.appendOwnBlock(l, a, 1, 3)
	md.append(l, 2, 5, false)
	md.fold(l)
	md.append(l, 0, 0, true)
	md.flushed(l.ForceFlush())
	md.clear(l, func(lsn uint64) bool { return lsn <= 9 && lsn != 7 })
	md.append(l, 1, 6, false)
	md.append(l, 2, 3, true)
	md.clear(l, func(uint64) bool { return true }) // empties the log: tail recycle
	for i := 0; i < 3; i++ {
		md.append(l, i%3, 4, i == 2) // over the recycled area
		md.fold(l)
	}
	for lsn := range md.appended {
		md.cleared[lsn] = true
	}
	l.Reset(true)
	md.append(l, 1, 2, false)
	md.fold(l)
	md.append(l, 0, 0, true)
}

// TestBucketRecordsCrashMatrix crashes before every durable operation of
// bucketScript — append, group flush, bucket roll-over, ClearScan with its
// tail-recycle branch, Reset — and holds the reopened log against the model;
// then it appends enough to roll a bucket and checks that no surviving
// record was overwritten and the heap is sound.
func TestBucketRecordsCrashMatrix(t *testing.T) {
	n := crashtest.Explore(t, crashtest.Case[*Log]{
		Setup: func() (*nvm.Memory, error) {
			m, a := smallEnv()
			New(a, bucketCfg)
			return m, nil
		},
		Open: func(m *nvm.Memory) (*Log, error) {
			a, err := pmem.Open(m)
			if err != nil {
				return nil, err
			}
			return Open(a, bucketCfg)
		},
		Model: func() crashtest.Model[*Log] { return &bucketRun{newLogModel()} },
	})
	if n < 99 {
		t.Fatalf("script ran only %d durable operations", n)
	}
}

type bucketRun struct{ md *logModel }

func (r *bucketRun) Run(l *Log, arm func()) error {
	arm()
	bucketScript(l, l.a, r.md)
	return nil
}

func (r *bucketRun) Check(l *Log, crashed bool) error {
	md := r.md
	if err := md.check(l); err != nil {
		return fmt.Errorf("after recovery: %v", err)
	}
	if !crashed && len(md.ended) < 3 {
		return fmt.Errorf("the script folded %d ENDs, want at least 3", len(md.ended))
	}
	// Whatever survived is durable now and must outlive new appends; the
	// rest is gone for good.
	for lsn := range md.appended {
		md.cleared[lsn] = true
	}
	for _, lsn := range collectLSNs(l, false) {
		md.durable[lsn], md.cleared[lsn] = true, false
	}
	for i := 0; i < 6; i++ {
		md.append(l, i%3, 5, false)
		md.fold(l)
	}
	md.flushed(l.ForceFlush())
	if err := md.check(l); err != nil {
		return fmt.Errorf("after appending to the recovered log: %v", err)
	}
	return l.a.CheckHeap()
}

// linkParentBucket links a bucket laid out as the parent commit did: index,
// cells and a line of slack, no record area.
func linkParentBucket(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tail := l.list.tail(); tail != nvm.Null {
		bucket := l.list.element(tail)
		l.flushGroupLocked(bucket, l.states[bucket])
	}
	size := int(cellsBase(0)) + l.cfg.BucketSize*8 + nvm.LineSize
	bucket := l.a.Alloc(size)
	l.mem.Zero(bucket, size)
	l.mem.FlushRange(bucket, size)
	l.mem.Fence()
	l.list.append(bucket)
	st := &bucketState{bump: l.areaBase(bucket), end: bucket + uint64(l.a.BlockSize(bucket))}
	l.states[bucket] = st
	l.pendingFrom, l.pendingArea, l.pendingEnd, l.pendingOwn = 0, st.bump, st.end, false
}

// TestParentLayoutLogUpgrades builds a log the way the parent commit wrote
// it — unstamped header, buckets without areas, every record in a block of
// its own — and checks that this binary opens it, reads it, appends to it,
// stamps it so the parent would refuse it from then on, and that clearing it
// frees the record blocks: the heap returns to what it held before the log.
func TestParentLayoutLogUpgrades(t *testing.T) {
	m, a := smallEnv()
	cfg := Config{Kind: Batch, BucketSize: 8, GroupSize: 4, RootSlot: testSlot}
	l := New(a, cfg)
	m.StoreNT64(l.hdr+lhKind, uint64(Batch)) // what the parent's New wrote
	empty := a.HeapLive()
	md := newLogModel()
	for i := 0; i < 20; i++ {
		if i%cfg.BucketSize == 0 {
			linkParentBucket(l)
		}
		md.appendOwnBlock(l, a, i%3, 4)
	}
	md.flushed(l.ForceFlush())
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}

	a2, err := pmem.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.BucketSize++
	if _, err := Open(a2, wrong); err == nil || m.Load64(l.hdr+lhKind) != uint64(Batch) {
		t.Fatalf("a refused Open (%v) must leave the parent's kind word, found %#x", err, m.Load64(l.hdr+lhKind))
	}
	l2, err := Open(a2, cfg)
	if err != nil {
		t.Fatalf("opening a parent-layout log: %v", err)
	}
	if w := m.Load64(l2.hdr + lhKind); w == uint64(Batch) || w != kindWord(Batch) {
		t.Fatalf("kind word %#x after Open: the parent compares it to %d and must not match", w, Batch)
	}
	if err := md.check(l2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		md.append(l2, i%3, 4, i%4 == 3)
	}
	md.flushed(l2.ForceFlush())
	if err := md.check(l2); err != nil {
		t.Fatalf("after appending: %v", err)
	}
	if got := len(collectLSNs(l2, false)); got != 32 {
		t.Fatalf("%d records, want 32", got)
	}

	md.clear(l2, func(uint64) bool { return true })
	if !l2.Empty() {
		t.Fatalf("%d records left after clearing all", l2.Len())
	}
	// What is left is the header and the recycled tail bucket with its list
	// node; drop those two to compare with the heap before any bucket.
	_, buckets, bytes := l2.Occupancy()
	if buckets != 1 {
		t.Fatalf("%d buckets linked after clearing all, want the tail only", buckets)
	}
	node := l2.list.tail()
	tail := int(bytes) + 8 + a2.BlockSize(node) + 8
	if got := a2.HeapLive() - tail; got != empty {
		t.Fatalf("heap holds %d B beyond the empty log's %d: record blocks leaked", got-empty, empty)
	}
	if err := a2.CheckHeap(); err != nil {
		t.Fatal(err)
	}

	// Reset takes the other path to the same end.
	for i := 0; i < 5; i++ {
		md.appendOwnBlock(l2, a2, 1, 2)
		md.append(l2, 2, 2, false)
	}
	l2.Reset(true)
	if got := a2.HeapLive(); got != empty {
		t.Fatalf("heap holds %d B after Reset, want the empty log's %d", got, empty)
	}
}

// TestFoldEnd: an END folds into a record only while the record waits for
// its group flush, and then goes durable with it or not at all; a record a
// flush has covered — by a forced flush, a full group or a closed bucket —
// refuses it, as do the kinds whose records are durable on append. A log
// stamped by the layout before folding opens and is stamped anew, so the
// older binary refuses it from then on.
func TestFoldEnd(t *testing.T) {
	m, a := smallEnv()
	cfg := Config{Kind: Batch, BucketSize: 4, GroupSize: 2, RootSlot: testSlot}
	l := New(a, cfg)
	m.StoreNT64(l.hdr+lhKind, uint64(Batch)|batchAreaStamp) // the layout before folding
	reopen := func() {
		t.Helper()
		if err := m.Crash(); err != nil {
			t.Fatal(err)
		}
		a2, err := pmem.Open(m)
		if err != nil {
			t.Fatal(err)
		}
		if l, err = Open(a2, cfg); err != nil {
			t.Fatal(err)
		}
	}
	md := newLogModel()
	fold := func(want bool) {
		t.Helper()
		if got := l.FoldEnd(md.last); got != want {
			t.Fatalf("FoldEnd(lsn %d) = %v, want %v", md.last.LSN(), got, want)
		}
		if want {
			md.ended[md.last.LSN()] = true
		}
	}

	md.append(l, 1, 2, false)
	fold(true)
	reopen() // before the group flush: record and END are lost together
	if err := md.check(l); err != nil || !l.Empty() {
		t.Fatalf("a pending record survived the crash (%d records): %v", l.Len(), err)
	}
	md.cleared[1] = true // gone for good
	if w := m.Load64(l.hdr + lhKind); w != kindWord(Batch) {
		t.Fatalf("kind word %#x after Open, want the folded-END stamp %#x", w, kindWord(Batch))
	}

	md.append(l, 1, 2, false) // first of its group: the END folds
	fold(true)
	md.append(l, 0, 0, false) // completes the group: flushed on append
	fold(false)
	md.append(l, 2, 3, false)
	md.flushed(l.ForceFlush())
	fold(false)
	md.append(l, 0, 0, false) // fills the bucket: flushed on append
	for i := 0; i < 4; i++ {
		md.append(l, 0, 0, false) // a second bucket
	}
	closed := md.last
	md.clear(l, func(lsn uint64) bool { return lsn <= 5 }) // frees the first
	md.append(l, 1, 2, false)                              // a third, in the first one's block
	if md.last.Addr > closed.Addr {
		t.Fatalf("the new tail bucket lies above the closed one (%#x > %#x): the scenario wants it below", md.last.Addr, closed.Addr)
	}
	if l.FoldEnd(closed) {
		t.Fatal("FoldEnd folded into a record of a closed bucket above the tail")
	}
	if l.FoldEnd(Ref{}) {
		t.Fatal("FoldEnd folded into the zero Ref")
	}
	fold(true)
	md.flushed(l.ForceFlush())
	reopen()
	if err := md.check(l); err != nil {
		t.Fatal(err)
	}
	ended := 0
	it := l.Begin()
	for it.Next() {
		if it.Record().Ends() {
			ended++
		}
	}
	it.Close()
	if ended != 1 || l.Len() != 5 || l.Buckets() != 2 {
		t.Fatalf("%d of %d records in %d buckets ended, want 1 of 5 in 2", ended, l.Len(), l.Buckets())
	}

	for _, kind := range []Kind{Simple, Optimized} {
		_, a := smallEnv()
		l := New(a, Config{Kind: kind, RootSlot: testSlot})
		if rec, _ := l.AppendFields(shapedFields(1, 1, 2), false); l.FoldEnd(rec) {
			t.Fatalf("%v: FoldEnd folded into a record durable on append", kind)
		}
	}
}

// TestAppendDuringClearScan: a clearing pass must not hold the log's mutex
// while it works on a closed bucket — an append completes while the callback
// on an earlier bucket is blocked — and the pass still sees a consistent log.
func TestAppendDuringClearScan(t *testing.T) {
	_, a := smallEnv()
	l := New(a, bucketCfg)
	md := newLogModel()
	for i := 0; i < 6; i++ { // two buckets
		md.append(l, 0, 0, false)
	}
	md.flushed(l.ForceFlush())

	inCallback, release, cleared := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cleared)
		first := true
		l.ClearScan(false, func(r Record) ClearAction {
			if first {
				first = false
				close(inCallback)
				<-release
			}
			if r.LSN() > 6 {
				return Keep
			}
			return RemoveFree
		})
	}()
	<-inCallback
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := 0; i < 5; i++ { // rolls into a third bucket under the scan
			md.append(l, 1, 3, i == 4)
		}
	}()
	select {
	case <-appended:
	case <-time.After(30 * time.Second):
		t.Fatal("AppendFields blocked behind a ClearScan callback")
	}
	close(release)
	<-cleared

	for lsn := uint64(1); lsn <= 6; lsn++ {
		md.cleared[lsn] = true
	}
	if err := md.check(l); err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, collectLSNs(l, false), []uint64{7, 8, 9, 10, 11})
	if _, buckets, _ := l.Occupancy(); buckets != 2 {
		t.Fatalf("%d buckets linked, want 2: the cleared head bucket must be freed", buckets)
	}
}

// TestClearScanTombstonesEndLast: a clearing pass under live appends must not
// let a finished transaction's END tombstone reach the device ahead of the
// tombstones of its updates (§4.6), or a crash in between leaves updates
// that recovery would undo. Transactions overlap so that an END sits a line
// or a bucket past its updates, and every END forces a flush so the pending
// group starts mid-line. The callback stands in for a concurrent appender:
// at one record of the pass, if the log's mutex is free, it commits a
// transaction of its own, whose group flush writes back whole cell lines.
// Every record in turn, crashing before every durable operation of the pass.
func TestClearScanTombstonesEndLast(t *testing.T) {
	cfg := Config{Kind: Batch, BucketSize: 16, GroupSize: 8, RootSlot: testSlot}
	const txns, stamp = 9, 3*9 + 1 // the stamp's LSN: two updates and an END each go before it
	add := func(l *Log, lsn, txn uint64, typ Type, end bool) {
		l.AppendFields(Fields{LSN: lsn, Txn: txn, Type: typ, Flags: FlagUndoable, Addr: 0x4000 + lsn*8}, end)
	}
	setup := func(l *Log) {
		lsn := uint64(0)
		for txn := uint64(1); txn <= txns+2; txn++ {
			if txn <= txns {
				lsn++
				add(l, lsn, txn, TypeUpdate, false)
				lsn++
				add(l, lsn, txn, TypeUpdate, false)
			}
			if txn > 2 {
				lsn++
				add(l, lsn, txn-2, TypeEnd, true)
			}
		}
		add(l, stamp, 0, TypeCheckpoint, false)
		l.ForceFlush()
		if l.Buckets() != 2 {
			t.Fatalf("stamp in %d buckets: the scenario wants one closed bucket and the tail", l.Buckets())
		}
	}
	for at := uint64(1); at < stamp; at++ {
		crashtest.Explore(t, logCase(cfg, setup, func() crashtest.Model[*Log] {
			interleaved := false
			return crashtest.Funcs[*Log]{
				Workload: func(l *Log, arm func()) error {
					arm()
					l.ClearScan(false, func(r Record) ClearAction {
						if r.LSN() == at && l.mu.TryLock() {
							l.mu.Unlock()
							interleaved = true
							add(l, stamp+1, 100, TypeUpdate, false)
							add(l, stamp+2, 100, TypeEnd, true)
						}
						if r.LSN() >= stamp {
							return Keep
						}
						return RemoveFree
					})
					return nil
				},
				Verify: func(l *Log, crashed bool) error {
					if closed := at <= uint64(cfg.BucketSize); !crashed && interleaved != closed {
						return fmt.Errorf("at=%d: append during the pass = %v; closed buckets are cleared without the mutex, the tail under it", at, interleaved)
					}
					updates, ended := map[uint64]int{}, map[uint64]bool{}
					it := l.Begin()
					for it.Next() {
						if r := it.Record(); r.Type() == TypeEnd {
							ended[r.Txn()] = true
						} else {
							updates[r.Txn()]++
						}
					}
					it.Close()
					for txn := uint64(1); txn <= txns; txn++ {
						if updates[txn] > 0 && !ended[txn] {
							return fmt.Errorf("at=%d: finished txn %d keeps %d updates without its END: recovery would undo a committed transaction", at, txn, updates[txn])
						}
						if !crashed && (updates[txn] > 0 || ended[txn]) {
							return fmt.Errorf("at=%d: the completed pass left records of finished txn %d", at, txn)
						}
					}
					return nil
				},
			}
		}))
	}
}

// BenchmarkAppendCommit is the rlog row of the cost ledger: what one small
// commit — a 2-word span with its END folded in, the flush — bills the
// device through the log alone. core.BenchmarkCommit is the same commit one
// layer up.
func BenchmarkAppendCommit(b *testing.B) {
	m := nvm.New(nvm.Config{Size: 64 << 20, TrackPersistence: true})
	l := New(pmem.Format(m), Config{Kind: Batch, RootSlot: testSlot})
	span := []uint64{1, 2}
	var dev nvm.Stats
	var logB int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		d0, l0 := m.Stats(), l.AppendedBytes()
		for end := min(b.N, i+2048); i < end; i++ {
			lsn := uint64(i + 1)
			rec, _ := l.AppendFields(Fields{LSN: lsn, Txn: lsn, Type: TypeUpdate, Flags: FlagUndoable, Addr: 4096, OldSpan: span, NewSpan: span}, false)
			l.FoldEnd(rec)
			l.ForceFlush()
		}
		b.StopTimer()
		d := m.Stats().Sub(d0)
		logB += l.AppendedBytes() - l0
		dev.LineWrites, dev.NTStores, dev.SimulatedNS = dev.LineWrites+d.LineWrites, dev.NTStores+d.NTStores, dev.SimulatedNS+d.SimulatedNS
		l.ClearScan(false, func(Record) ClearAction { return RemoveFree }) // the checkpoint's clear, off both clocks
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(logB)/n, "logB/op")
	b.ReportMetric(float64(dev.LineWrites)/n, "lineWrites/op")
	b.ReportMetric(float64(dev.NTStores)/n, "ntStores/op")
	b.ReportMetric(float64(dev.SimulatedNS)/n, "simNs/op")
}
