package rlog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

// Kind selects one of the three log implementations evaluated in the paper
// (§5: Simple, Optimized, Batch).
type Kind int

// The zero Kind is deliberately invalid so that a zero-valued
// configuration is distinguishable from an explicit choice of Simple.
const (
	// Simple is the plain ADLL: one list node per log record (§3.2).
	Simple Kind = iota + 1
	// Optimized is the hybrid layout of Figure 2: fixed-size buckets of
	// record pointers appended to the ADLL; inserting a record is a single
	// durable store into a bucket cell (§3.3).
	Optimized
	// Batch extends Optimized by packing multiple record pointers per
	// cache line and issuing one flush + fence + persisted-index update
	// per group of GroupSize records (§3.3, "Multiple log records per
	// cacheline"). Its buckets also carry a record area, so the records
	// themselves pack into shared cache lines (AppendFields).
	Batch
)

func (k Kind) String() string {
	switch k {
	case Simple:
		return "Simple"
	case Optimized:
		return "Optimized"
	case Batch:
		return "Batch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Defaults matching the paper's configuration (§5: bucket size 1,000
// records; 64-byte cache lines with 8-byte pointers give groups of 8).
const (
	DefaultBucketSize = 1000
	DefaultGroupSize  = nvm.WordsPerLine
)

// tombstone marks a cleared cell (the paper's "marked gaps", §3.3). Real
// record addresses are always >= pmem.HeapBase, so 1 is unambiguous.
const tombstone = 1

// Log header layout in NVM.
const (
	lhKind       = 0
	lhBucketSize = 8
	lhADLL       = 16
	lhSize       = lhADLL + adllHeaderLen
)

// Stamps or-ed into a Batch log's kind word, one per layout change a reader
// must know about. A binary from before a stamp reads the stamped word as an
// unknown kind and refuses the log, where it would otherwise
//   - batchAreaStamp (buckets carry record areas): free "record blocks" in
//     the middle of a bucket;
//   - foldedEndStamp (a record may carry its transaction's END, FlagEnd):
//     take a committed transaction for a loser and undo it.
const (
	batchAreaStamp = 1 << 8
	foldedEndStamp = 1 << 9
	stamps         = batchAreaStamp | foldedEndStamp
)

func kindWord(k Kind) uint64 {
	if k == Batch {
		return uint64(k) | stamps
	}
	return uint64(k)
}

// Bucket layout, one pmem block: the persisted-index word, then the cells,
// line-aligned so that a group of 8 cells occupies exactly one cache line,
// then (Batch) the record area, line-aligned again and running to the end
// of the block. The area holds nothing but log records, packed 8-byte
// aligned, and a record is reachable only through its cell — so a flush of
// a line two records share can persist nothing that matters early.
const bucketIdx = 0

// areaPerCell sizes a fresh bucket's record area, in bytes per cell. The
// serving record mix averages 84-88 B, so cells and area run out together;
// a bucket whose area fills first simply closes with cells to spare.
const areaPerCell = 96

func cellsBase(bucket uint64) uint64 {
	return (bucket + 8 + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
}

func cellAddr(bucket uint64, pos int) uint64 {
	return cellsBase(bucket) + uint64(pos)*8
}

// areaBase is the first byte past the cells, rounded up to a line.
func (l *Log) areaBase(bucket uint64) uint64 {
	return (cellAddr(bucket, l.cfg.BucketSize) + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
}

// Config selects the log layout and its tuning knobs.
type Config struct {
	Kind Kind
	// BucketSize is the number of record pointers per bucket
	// (Optimized/Batch). Default 1,000, as in the paper.
	BucketSize int
	// GroupSize is the number of records per flush/fence group (Batch).
	// Default 8 (64-byte line / 8-byte pointer); Figure 10 sweeps 8/16/32.
	GroupSize int
	// RootSlot is the pmem root slot that owns this log's header, so the
	// log can be reattached after a crash and atomically swapped by Reset.
	RootSlot int
}

func (c Config) withDefaults() Config {
	if c.BucketSize <= 0 {
		c.BucketSize = DefaultBucketSize
	}
	if c.GroupSize <= 0 {
		c.GroupSize = DefaultGroupSize
	}
	return c
}

// bucketState is the volatile per-bucket bookkeeping the paper deliberately
// does not persist (§3.3): the next free cell and the live-record count are
// reconstructed during the analysis phase after a crash.
type bucketState struct {
	next int // next free cell index
	live int // cells holding a record (not empty, not tombstone)
	// bump is the next free byte of the record area and end the first byte
	// past the bucket's block: a record at [bucket, end) lives and dies with
	// the bucket, any other address is a block of its own.
	bump, end uint64
}

// owns reports whether rec lies inside the bucket's block.
func (st *bucketState) owns(bucket, rec uint64) bool { return rec >= bucket && rec < st.end }

// Log is a recoverable REWIND log. Appends and removals are atomic with
// respect to crashes; volatile bookkeeping is rebuilt by Open.
//
// Locking: mu protects structural mutations and volatile state and is held
// per step: one append, one flush, one bucket of a clearing pass. clearMu serializes clearing passes (which invalidate
// iterators, §2) against open iterators: iterators hold it shared for their
// lifetime, ClearScan holds it exclusively. Appends take only mu, which
// ClearScan releases while it walks a closed bucket and holds over the tail
// bucket alone (an appender's flush must not write back its half-cleared
// cell lines), so concurrent transactions keep using the log while a
// checkpoint clears what lies behind them (§4.6). A Simple log is cleared
// under mu whole.
type Log struct {
	mem  *nvm.Memory
	a    *pmem.Allocator
	cfg  Config
	hdr  uint64
	list adll

	mu      sync.Mutex
	clearMu sync.RWMutex
	states  map[uint64]*bucketState // bucket addr -> volatile state
	live    int                     // total live records
	// bucketBytes totals the payload bytes of the linked bucket blocks.
	bucketBytes int64
	// Batch bookkeeping: first cell index and first area byte of the active
	// bucket not yet covered by a group flush, the first byte past that
	// bucket, and whether any pending cell points at a block of its own
	// (Append): those flush one by one.
	pendingFrom int
	pendingArea uint64
	pendingEnd  uint64
	pendingOwn  bool
	// appendedBytes totals the footprint of every record ever appended
	// (headers plus span payloads) — the write-path log volume the
	// footprint benchmarks compare across commit modes. Atomic so stats
	// snapshots need not take mu.
	appendedBytes atomic.Int64
}

// New allocates a fresh log, durably publishes its header in cfg.RootSlot,
// and returns it.
func New(a *pmem.Allocator, cfg Config) *Log {
	cfg = cfg.withDefaults()
	m := a.Mem()
	hdr := a.Alloc(lhSize)
	m.Zero(hdr, lhSize)
	m.Store64(hdr+lhKind, kindWord(cfg.Kind))
	m.Store64(hdr+lhBucketSize, uint64(cfg.BucketSize))
	m.FlushRange(hdr, lhSize)
	m.Fence()
	a.SetRoot(cfg.RootSlot, hdr)
	return attach(a, cfg, hdr)
}

// Open reattaches to the log published in cfg.RootSlot, performs the
// structural recovery of §3.2 (redo the one pending ADLL operation) and
// rebuilds the volatile bucket state from the durable image, honouring each
// bucket's persisted index in Batch mode. A Batch log written before
// buckets had record areas, or before ENDs were folded, opens as it is —
// every record's owner is decided by its address, and a record without
// FlagEnd reads as before — and is stamped, because from here on its new
// buckets carry areas and its commits fold their ENDs.
func Open(a *pmem.Allocator, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	m := a.Mem()
	hdr := a.Root(cfg.RootSlot)
	if hdr == nvm.Null {
		return nil, fmt.Errorf("rlog: root slot %d holds no log", cfg.RootSlot)
	}
	w := m.Load64(hdr + lhKind)
	if w&^stamps != uint64(cfg.Kind) {
		return nil, fmt.Errorf("rlog: log at slot %d has kind %v, config wants %v", cfg.RootSlot, Kind(w&^stamps), cfg.Kind)
	}
	if bs := int(m.Load64(hdr + lhBucketSize)); bs != cfg.BucketSize {
		return nil, fmt.Errorf("rlog: log at slot %d has bucket size %d, config wants %d", cfg.RootSlot, bs, cfg.BucketSize)
	}
	if w != kindWord(cfg.Kind) {
		m.StoreNT64(hdr+lhKind, kindWord(cfg.Kind))
	}
	l := attach(a, cfg, hdr)
	l.list.recover()
	l.rebuild()
	return l, nil
}

func attach(a *pmem.Allocator, cfg Config, hdr uint64) *Log {
	return &Log{
		mem:    a.Mem(),
		a:      a,
		cfg:    cfg,
		hdr:    hdr,
		list:   adll{mem: a.Mem(), a: a, hdr: hdr + lhADLL},
		states: make(map[uint64]*bucketState),
	}
}

// rebuild reconstructs the volatile bucket states from durable contents
// (the paper's "we reconstruct the information during the analysis phase").
func (l *Log) rebuild() {
	l.live, l.bucketBytes = 0, 0
	for node := l.list.head(); node != nvm.Null; node = l.list.next(node) {
		if l.cfg.Kind == Simple {
			l.live++
			continue
		}
		bucket := l.list.element(node)
		st := &bucketState{bump: l.areaBase(bucket), end: bucket + uint64(l.a.BlockSize(bucket))}
		limit := l.cfg.BucketSize
		if l.cfg.Kind == Batch {
			// Only records below the persisted index are real (§3.3);
			// anything beyond is junk from a lost cache and is cleared so
			// the cells can be reused.
			limit = int(l.mem.Load64(bucket + bucketIdx))
			for pos := limit; pos < l.cfg.BucketSize; pos++ {
				if l.mem.Load64(cellAddr(bucket, pos)) != 0 {
					l.mem.Store64(cellAddr(bucket, pos), 0)
				}
			}
		}
		st.next = limit
		if l.cfg.Kind == Optimized {
			// The last occupied cell is found by skipping trailing empty
			// cells (cleared cells are tombstones, so a zero is always
			// "never written").
			st.next = 0
			for pos := l.cfg.BucketSize - 1; pos >= 0; pos-- {
				if l.mem.Load64(cellAddr(bucket, pos)) != 0 {
					st.next = pos + 1
					break
				}
			}
		}
		last := nvm.Null
		for pos := 0; pos < st.next; pos++ {
			v := l.mem.Load64(cellAddr(bucket, pos))
			if v == 0 || v == tombstone {
				continue
			}
			st.live++
			if st.owns(bucket, v) {
				last = v
			}
		}
		// The area is free past the highest end of any record a valid cell
		// points to — the last one, as cells and area fill in step; what
		// lies beyond was never published.
		if last != nvm.Null {
			st.bump = last + uint64(View(l.mem, last).Size())
		}
		l.states[bucket] = st
		l.live += st.live
		l.bucketBytes += int64(st.end - bucket)
	}
	l.pendingFrom, l.pendingArea, l.pendingEnd, l.pendingOwn = 0, 0, 0, false
	if tail := l.list.tail(); tail != nvm.Null && l.cfg.Kind == Batch {
		st := l.states[l.list.element(tail)]
		l.pendingFrom, l.pendingArea, l.pendingEnd = st.next, st.bump, st.end
	}
}

// Kind returns the log's layout kind.
func (l *Log) Kind() Kind { return l.cfg.Kind }

// AppendedBytes returns the total footprint of every record appended since
// attach, in bytes. Clearing and Reset do not subtract: this is cumulative
// write volume, not occupancy.
func (l *Log) AppendedBytes() int64 { return l.appendedBytes.Load() }

// HeaderAddr returns the NVM address of the log header.
func (l *Log) HeaderAddr() uint64 { return l.hdr }

// Len returns the number of live records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.live
}

// Empty reports whether the log holds no live records.
func (l *Log) Empty() bool { return l.Len() == 0 }

// Occupancy returns the live record count, the linked bucket (or node)
// count and the payload bytes of the linked bucket blocks under one lock
// hold — what the /metrics log-occupancy gauges sample per scrape. All
// three shrink at checkpoints (§4.6), so this is the "log growth since last
// checkpoint" signal, where AppendedBytes is cumulative volume. Records in
// blocks of their own (Append, and every record of a Simple log) are not in
// the byte count.
func (l *Log) Occupancy() (records, buckets int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.Kind == Simple {
		return l.live, l.list.len(), 0
	}
	return l.live, len(l.states), l.bucketBytes
}

// Buckets returns the number of buckets (or nodes, for Simple) currently
// linked, for memory-utilization experiments.
func (l *Log) Buckets() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.list.len()
}

// Append atomically inserts a pointer to a record the caller built in a
// block of its own (Alloc, AllocDeferred) at the log tail; the log frees
// that block when the record is cleared with RemoveFree. end marks END
// records, which force a group flush in Batch mode (§3.3: "or when we find
// an END record"). It reports whether the append left every prior record
// durable (always true for Simple/Optimized; true at group boundaries for
// Batch), which the transaction manager uses to release deferred user
// writes.
func (l *Log) Append(rec uint64, end bool) (flushed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendedBytes.Add(int64(View(l.mem, rec).Size()))
	if l.cfg.Kind == Simple {
		l.list.append(rec)
		l.live++
		return true
	}
	bucket, st := l.activeBucket(0)
	l.pendingOwn = true
	return l.publishLocked(bucket, st, rec, end)
}

// AppendFields builds the record f describes and inserts it at the log
// tail, returning its Ref; end and flushed are as for Append. Under Batch
// the record is written with cached stores at the active bucket's bump
// position — no allocation, no block header, cache lines shared with its
// neighbours — and becomes durable with its cell's group flush; its memory
// belongs to the bucket and is released when the bucket is. The other kinds
// keep one durable block per record, as the paper draws them.
func (l *Log) AppendFields(f Fields, end bool) (rec Ref, flushed bool) {
	rec.Hdr = f.Header()
	if l.cfg.Kind != Batch {
		rec.Addr = Alloc(l.a, f).Addr
		return rec, l.Append(rec.Addr, end)
	}
	size := f.size()
	l.mu.Lock()
	defer l.mu.Unlock()
	bucket, st := l.activeBucket(size)
	rec.Addr = st.bump
	writeFields(l.mem, rec.Addr, f)
	st.bump += uint64(size)
	l.appendedBytes.Add(int64(size))
	return rec, l.publishLocked(bucket, st, rec.Addr, end)
}

// FoldEnd makes rec, a record AppendFields returned, its transaction's END
// in place of an END record of its own, and reports whether it could. It
// can while rec waits for its Batch group flush: one cached store sets
// FlagEnd in its header, and the flush that makes the record durable —
// published by one persisted-index store — makes the END durable with it,
// so recovery finds the record ended or not at all. Records appended after
// rec in the same group go durable in the same flush, so a folded END is
// never durable without every END appended before it. Once a flush has
// covered rec, or under the other kinds, whose records are durable on
// append, FoldEnd changes nothing and the caller appends an END record.
// rec must not have been cleared: a recycled area may hold another record
// at its address.
func (l *Log) FoldEnd(rec Ref) bool {
	if l.cfg.Kind != Batch {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Addr < l.pendingArea || rec.Addr >= l.pendingEnd {
		return false
	}
	l.mem.Store64(rec.Addr+recHeader, rec.Hdr|FlagEnd)
	return true
}

// publishLocked stores rec into the active bucket's next cell.
func (l *Log) publishLocked(bucket uint64, st *bucketState, rec uint64, end bool) (flushed bool) {
	addr := cellAddr(bucket, st.next)
	if l.cfg.Kind == Optimized {
		// One durable store: the atomic, cheap insert of Figure 2.
		l.mem.StoreNT64(addr, rec)
		flushed = true
	} else {
		l.mem.Store64(addr, rec)
	}
	st.next++
	st.live++
	l.live++

	if l.cfg.Kind == Batch {
		pending := st.next - l.pendingFrom
		if end || pending >= l.cfg.GroupSize || st.next == l.cfg.BucketSize {
			l.flushGroupLocked(bucket, st)
			flushed = true
		}
	}
	return flushed
}

// ForceFlush flushes any pending Batch group, reporting whether all
// appended records are now durable. It is a no-op for other kinds.
func (l *Log) ForceFlush() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.Kind != Batch {
		return true
	}
	tail := l.list.tail()
	if tail == nvm.Null {
		return true
	}
	bucket := l.list.element(tail)
	l.flushGroupLocked(bucket, l.states[bucket])
	return true
}

// flushGroupLocked persists the active bucket's pending cells and advances
// the persisted index: flush the records, flush the cell lines, fence, then
// one non-temporal store of the index. The records were written with cached
// stores; those in the bucket's area are contiguous and go out as one
// range, which is what reduces the cost to one fence per group.
func (l *Log) flushGroupLocked(bucket uint64, st *bucketState) {
	if st.next <= l.pendingFrom {
		return
	}
	for pos := l.pendingFrom; l.pendingOwn && pos < st.next; pos++ {
		if rec := l.mem.Load64(cellAddr(bucket, pos)); rec != 0 && rec != tombstone && !st.owns(bucket, rec) {
			// Span records carry a variable-length payload; flush the
			// record's full footprint, not just the fixed header.
			l.mem.FlushRange(rec, View(l.mem, rec).Size())
		}
	}
	l.mem.FlushRange(l.pendingArea, int(st.bump-l.pendingArea))
	l.mem.FlushRange(cellAddr(bucket, l.pendingFrom), (st.next-l.pendingFrom)*8)
	l.mem.Fence()
	l.mem.StoreNT64(bucket+bucketIdx, uint64(st.next))
	l.pendingFrom, l.pendingArea, l.pendingOwn = st.next, st.bump, false
}

// activeBucket returns the tail bucket with a free cell and need free bytes
// of record area, creating and linking a new one when needed. A new
// bucket's index and cells are zeroed and made durable before the ADLL
// append publishes it (§3.3: "We initialize the cells of each bucket to
// zero"); the area is left as it is, since nothing reads it but through a
// cell. A record larger than a whole area gets a bucket sized for it.
func (l *Log) activeBucket(need int) (uint64, *bucketState) {
	tail := l.list.tail()
	if tail != nvm.Null {
		bucket := l.list.element(tail)
		if st := l.states[bucket]; st.next < l.cfg.BucketSize && st.bump+uint64(need) <= st.end {
			return bucket, st
		}
		if l.cfg.Kind == Batch {
			// Close out the full bucket before moving on.
			l.flushGroupLocked(bucket, l.states[bucket])
		}
	}
	size := int(cellsBase(0)) + l.cfg.BucketSize*8 + nvm.LineSize // alignment slack
	if l.cfg.Kind == Batch {
		size = int(l.areaBase(0)) + max(l.cfg.BucketSize*areaPerCell, need)
	}
	bucket := l.a.Alloc(size)
	zero := size
	if l.cfg.Kind == Batch {
		zero = int(l.areaBase(bucket) - bucket) // index and cells only
	}
	l.mem.Zero(bucket, zero)
	l.mem.FlushRange(bucket, zero)
	l.mem.Fence()
	l.list.append(bucket)
	st := &bucketState{bump: l.areaBase(bucket), end: bucket + uint64(l.a.BlockSize(bucket))}
	l.states[bucket] = st
	l.bucketBytes += int64(st.end - bucket)
	l.pendingFrom, l.pendingArea, l.pendingEnd, l.pendingOwn = 0, st.bump, st.end, false
	return bucket, st
}
