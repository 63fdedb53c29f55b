// Package btree implements a persistent B+-tree stored directly in REWIND's
// NVM arena — the data structure at the heart of the paper's evaluation
// (§5.2): 32-byte records keyed by 64-bit integers, with every critical
// update physically logged through the REWIND runtime.
//
// The tree is parameterized by a Writer, which decouples the structure from
// the persistence regime so the paper's comparison lines come from one
// implementation:
//
//   - *rewind.Tx: fully recoverable — every word write is logged ahead of
//     the store (the "REWIND" lines of Figure 7);
//   - NVMWriter: durable non-temporal stores, no logging — persistent but
//     not recoverable (the "NVM" line);
//   - DRAMWriter: cached stores, no logging, no NVM write cost (the
//     "DRAM" line).
//
// Records are fixed-width by default: every write and every move inside the
// tree stores the whole ValueSize slot. A tree created with
// Config.LenPrefix (kv's) follows the record rule of DESIGN.md §8 instead:
// a record is [length word | payload, word-rounded], Insert and the leaf
// entry points accept that prefix, and shifts, splits, merges, borrows and
// MigrateRange store and log a record's used prefix only. The rest of the
// slot is unspecified — it may hold bytes of an older, longer record — and
// the tree never reads it to decide anything; but the latched Lookup and
// Scan return whole slots, unspecified tail included, so callers of a
// length-prefixed tree read through the length word (SeekRecord,
// ScanRecords, LeafValueAddr). Rollback and recovery need nothing extra:
// the Writer logs the old image of exactly the words each write covers.
//
// Like the paper's user data structures (§4.7), the tree leaves cross-
// transaction concurrency control to the caller.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

// Writer abstracts the mutation path. *rewind.Tx satisfies it.
type Writer interface {
	Write64(addr, val uint64) error
	WriteBytes(addr uint64, p []byte) error
	Alloc(size int) uint64
	Free(addr uint64) error
}

// TxnReader is the optional read side of a Writer. A Writer that stages its
// writes privately until commit (rewind.Tx under Options.CommitMode ==
// RedoOnly) reports Buffered() == true, and the tree then routes every
// structural read of a mutation through it — a transaction's second insert
// must see the nodes its first one wrote, even though shared memory will
// not until commit. *rewind.Tx satisfies it in both commit modes.
type TxnReader interface {
	Read64(addr uint64) uint64
	ReadBytes(addr uint64, n int) []byte
	Buffered() bool
}

// loader abstracts the read path: shared NVM for plain reads and for
// Writers that apply in place, the transaction's overlay for buffered ones.
// *nvm.Memory satisfies it directly.
type loader interface {
	Load64(addr uint64) uint64
	Read(addr uint64, p []byte)
}

// txnLoader adapts a buffered TxnReader to the loader shape.
type txnLoader struct{ r TxnReader }

func (l txnLoader) Load64(addr uint64) uint64  { return l.r.Read64(addr) }
func (l txnLoader) Read(addr uint64, p []byte) { copy(p, l.r.ReadBytes(addr, len(p))) }

// NVMWriter mutates through durable non-temporal stores without logging:
// persistent, not recoverable (the paper's "NVM" baseline).
type NVMWriter struct {
	Mem *nvm.Memory
	A   *pmem.Allocator
}

// Write64 stores one word durably.
func (w NVMWriter) Write64(addr, val uint64) error { w.Mem.StoreNT64(addr, val); return nil }

// WriteBytes stores a byte range durably.
func (w NVMWriter) WriteBytes(addr uint64, p []byte) error { w.Mem.WriteNT(addr, p); return nil }

// Alloc allocates a block.
func (w NVMWriter) Alloc(size int) uint64 { return w.A.Alloc(size) }

// Free releases a block immediately (no transactional deferral).
func (w NVMWriter) Free(addr uint64) error { w.A.Free(addr); return nil }

// DRAMWriter mutates through cached stores: volatile, free of NVM write
// cost (the paper's "DRAM" baseline).
type DRAMWriter struct {
	Mem *nvm.Memory
	A   *pmem.Allocator
}

// Write64 stores one word into the cache.
func (w DRAMWriter) Write64(addr, val uint64) error { w.Mem.Store64(addr, val); return nil }

// WriteBytes stores a byte range into the cache.
func (w DRAMWriter) WriteBytes(addr uint64, p []byte) error { w.Mem.Write(addr, p); return nil }

// Alloc allocates a block.
func (w DRAMWriter) Alloc(size int) uint64 { return w.A.Alloc(size) }

// Free releases a block immediately.
func (w DRAMWriter) Free(addr uint64) error { w.A.Free(addr); return nil }

// Config shapes the tree.
type Config struct {
	// MaxKeys is the key capacity of an internal node (default 32).
	MaxKeys int
	// LeafCap is the record capacity of a leaf (default 16).
	LeafCap int
	// ValueSize is the record payload size in bytes, word-aligned
	// (default 32, the paper's record size).
	ValueSize int
	// RootSlot is the application root slot publishing the tree header.
	RootSlot int
	// LenPrefix declares that every record starts with a little-endian
	// length word counting the payload bytes behind it, and switches the
	// tree to the record rule in the package comment: a write takes a record
	// prefix and the tree stores, logs and moves only the used prefix. Like
	// ValueSize it is fixed at creation and must be passed again on attach.
	LenPrefix bool
}

func (c Config) withDefaults() Config {
	if c.MaxKeys <= 0 {
		c.MaxKeys = 32
	}
	if c.LeafCap <= 0 {
		c.LeafCap = 16
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 32
	}
	if c.ValueSize%8 != 0 {
		c.ValueSize = (c.ValueSize + 7) &^ 7
	}
	return c
}

// Node layout. Arrays are sized one past capacity so an insert may overflow
// transiently before splitting.
//
//	word 0: isLeaf(bit 0) | count<<1
//	word 1: next leaf (leaves only)
//	keys:   +16, (cap+1) words
//	leaves: values after keys, (cap+1) * ValueSize bytes
//	internal: children after keys, (cap+2) words
const (
	nodeMeta = 0
	nodeNext = 8
	nodeKeys = 16
)

// Header layout.
const (
	hdrRoot  = 0
	hdrCount = 8
	hdrSize  = 16
)

// Tree is a persistent B+-tree. Mutations go through a Writer; reads are
// direct loads (routed through the mutating transaction's own overlay when
// the Writer buffers — see TxnReader).
type Tree struct {
	s   *rewind.Store
	mem *nvm.Memory
	ld  loader
	cfg Config
	hdr uint64
}

// writeView returns the tree a mutation should run against: the receiver
// itself for in-place Writers, or a shallow copy whose reads go through the
// transaction's overlay when the Writer stages writes privately. The copy is
// transient — it lives for one Insert/Delete call and shares every address
// with the receiver.
func (t *Tree) writeView(w Writer) *Tree {
	if r, ok := w.(TxnReader); ok && r.Buffered() {
		tv := *t
		tv.ld = txnLoader{r}
		return &tv
	}
	return t
}

// New creates an empty tree, publishing its header in cfg.RootSlot. The
// initial structure is created with durable stores outside any transaction
// (nothing references it until the root-slot store publishes it).
func New(s *rewind.Store, cfg Config) (*Tree, error) {
	t, err := NewAt(s, cfg)
	if err != nil {
		return nil, err
	}
	s.SetRoot(t.cfg.RootSlot, t.hdr)
	return t, nil
}

// NewAt creates an empty tree WITHOUT publishing it in a root slot: the
// caller stores Header() somewhere durable and reachable instead (e.g. a
// side table of many trees, as the kv package's stripes do — root slots
// are scarce). Until then the tree is unreachable; a crash merely leaks
// its two blocks.
func NewAt(s *rewind.Store, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	t := &Tree{s: s, mem: s.Mem(), ld: s.Mem(), cfg: cfg}
	hdr := s.Alloc(hdrSize)
	leaf := s.Alloc(t.leafSize())
	t.mem.Zero(leaf, t.leafSize())
	t.mem.Store64(leaf+nodeMeta, 1) // empty leaf
	t.mem.FlushRange(leaf, t.leafSize())
	t.mem.StoreNT64(hdr+hdrRoot, leaf)
	t.mem.StoreNT64(hdr+hdrCount, 0)
	t.mem.Fence()
	t.hdr = hdr
	return t, nil
}

// Header returns the NVM address of the tree header, for callers that
// publish trees through their own durable structures (see NewAt/AttachAt).
func (t *Tree) Header() uint64 { return t.hdr }

// Attach reopens the tree published in cfg.RootSlot.
func Attach(s *rewind.Store, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	hdr := s.Root(cfg.RootSlot)
	if hdr == 0 {
		return nil, fmt.Errorf("btree: root slot %d is empty", cfg.RootSlot)
	}
	return &Tree{s: s, mem: s.Mem(), ld: s.Mem(), cfg: cfg, hdr: hdr}, nil
}

// AttachAt reopens a tree whose header address the application stored
// somewhere other than a root slot (e.g. a side table of tree pointers).
func AttachAt(s *rewind.Store, cfg Config, hdr uint64) (*Tree, error) {
	cfg = cfg.withDefaults()
	if hdr == 0 {
		return nil, errors.New("btree: nil header address")
	}
	return &Tree{s: s, mem: s.Mem(), ld: s.Mem(), cfg: cfg, hdr: hdr}, nil
}

// LeafSize returns the NVM footprint of one leaf node for this
// configuration (defaults resolved): header, key array, and record array,
// each sized one past capacity for the transient insert overflow. Callers
// sizing arenas or validating value-size configs (the kv package) use it
// instead of duplicating the layout arithmetic.
func (c Config) LeafSize() int {
	c = c.withDefaults()
	return nodeKeys + (c.LeafCap+1)*8 + (c.LeafCap+1)*c.ValueSize
}

func (t *Tree) leafSize() int { return t.cfg.LeafSize() }

func (t *Tree) internalSize() int {
	return nodeKeys + (t.cfg.MaxKeys+1)*8 + (t.cfg.MaxKeys+2)*8
}

func (t *Tree) isLeaf(n uint64) bool { return t.ld.Load64(n+nodeMeta)&1 == 1 }
func (t *Tree) count(n uint64) int   { return int(t.ld.Load64(n+nodeMeta) >> 1) }

func (t *Tree) setMeta(w Writer, n uint64, leaf bool, count int) error {
	v := uint64(count) << 1
	if leaf {
		v |= 1
	}
	return w.Write64(n+nodeMeta, v)
}

func (t *Tree) keyAddr(n uint64, i int) uint64 { return n + nodeKeys + uint64(i)*8 }

func (t *Tree) key(n uint64, i int) uint64 { return t.ld.Load64(t.keyAddr(n, i)) }

func (t *Tree) setKey(w Writer, n uint64, i int, k uint64) error {
	return w.Write64(t.keyAddr(n, i), k)
}

func (t *Tree) valAddr(n uint64, i int) uint64 {
	return n + nodeKeys + uint64(t.cfg.LeafCap+1)*8 + uint64(i*t.cfg.ValueSize)
}

func (t *Tree) childAddr(n uint64, i int) uint64 {
	return n + nodeKeys + uint64(t.cfg.MaxKeys+1)*8 + uint64(i)*8
}

func (t *Tree) child(n uint64, i int) uint64 { return t.ld.Load64(t.childAddr(n, i)) }

func (t *Tree) root() uint64 { return t.ld.Load64(t.hdr + hdrRoot) }

// Len returns the number of records.
func (t *Tree) Len() int { return int(t.ld.Load64(t.hdr + hdrCount)) }

// Config returns the tree configuration (with defaults resolved).
func (t *Tree) Config() Config { return t.cfg }

// findPos returns the position of the first key >= k and whether it equals k.
func (t *Tree) findPos(n uint64, k uint64) (int, bool) {
	return t.findPosIn(n, k, t.count(n))
}

// Lookup returns the value stored under k.
func (t *Tree) Lookup(k uint64) ([]byte, bool) {
	n := t.root()
	for !t.isLeaf(n) {
		pos, eq := t.findPos(n, k)
		if eq {
			pos++ // keys equal to the separator live in the right child
		}
		n = t.child(n, pos)
	}
	pos, eq := t.findPos(n, k)
	if !eq {
		return nil, false
	}
	out := make([]byte, t.cfg.ValueSize)
	t.ld.Read(t.valAddr(n, pos), out)
	return out, true
}

// Scan calls fn for every record with key in [from, to], in order, until fn
// returns false.
func (t *Tree) Scan(from, to uint64, fn func(k uint64, v []byte) bool) {
	n := t.root()
	for !t.isLeaf(n) {
		pos, eq := t.findPos(n, from)
		if eq {
			pos++
		}
		n = t.child(n, pos)
	}
	for n != 0 {
		cnt := t.count(n)
		for i := 0; i < cnt; i++ {
			k := t.key(n, i)
			if k < from {
				continue
			}
			if k > to {
				return
			}
			v := make([]byte, t.cfg.ValueSize)
			t.ld.Read(t.valAddr(n, i), v)
			if !fn(k, v) {
				return
			}
		}
		n = t.ld.Load64(n + nodeNext)
	}
}

// ErrValueSize is returned when a value does not match Config.ValueSize
// (under Config.LenPrefix: is not a word-rounded record prefix that covers
// the payload its length word declares and fits the slot).
var ErrValueSize = errors.New("btree: value size mismatch")

// usedLen is how many bytes of its slot a length-prefixed record with the
// given length word occupies: that word plus the word-rounded payload.
func (t *Tree) usedLen(lenWord uint64) int {
	if lenWord > uint64(t.cfg.ValueSize-8) {
		return t.cfg.ValueSize
	}
	return 8 + (int(lenWord)+7)&^7
}

func (t *Tree) checkVal(v []byte) error {
	if len(v) == t.cfg.ValueSize {
		return nil
	}
	if !t.cfg.LenPrefix || len(v) < 8 || len(v)%8 != 0 || len(v) > t.cfg.ValueSize ||
		len(v) < t.usedLen(binary.LittleEndian.Uint64(v)) {
		return ErrValueSize
	}
	return nil
}

// Insert stores v under k inside tx, replacing any existing value. It
// reports whether the key was new.
func (t *Tree) Insert(w Writer, k uint64, v []byte) (bool, error) {
	if err := t.checkVal(v); err != nil {
		return false, err
	}
	t = t.writeView(w)
	root := t.root()
	sep, right, split, added, err := t.insert(w, root, k, v)
	if err != nil {
		return false, err
	}
	if split {
		// Grow the tree: fresh root with two children.
		nr := w.Alloc(t.internalSize())
		if err := t.setMeta(w, nr, false, 1); err != nil {
			return false, err
		}
		if err := t.setKey(w, nr, 0, sep); err != nil {
			return false, err
		}
		if err := w.Write64(t.childAddr(nr, 0), root); err != nil {
			return false, err
		}
		if err := w.Write64(t.childAddr(nr, 1), right); err != nil {
			return false, err
		}
		if err := w.Write64(t.hdr+hdrRoot, nr); err != nil {
			return false, err
		}
	}
	if added {
		if err := w.Write64(t.hdr+hdrCount, uint64(t.Len())+1); err != nil {
			return false, err
		}
	}
	return added, nil
}

// insert descends to the leaf, inserts, and splits on overflow, returning
// the separator and new right sibling when the node split.
func (t *Tree) insert(w Writer, n, k uint64, v []byte) (sep, right uint64, split, added bool, err error) {
	if t.isLeaf(n) {
		return t.insertLeaf(w, n, k, v)
	}
	pos, eq := t.findPos(n, k)
	if eq {
		pos++
	}
	childSep, childRight, childSplit, added, err := t.insert(w, t.child(n, pos), k, v)
	if err != nil || !childSplit {
		return 0, 0, false, added, err
	}
	// Insert the separator and new child at pos.
	cnt := t.count(n)
	for i := cnt; i > pos; i-- {
		if err := t.setKey(w, n, i, t.key(n, i-1)); err != nil {
			return 0, 0, false, false, err
		}
		if err := w.Write64(t.childAddr(n, i+1), t.child(n, i)); err != nil {
			return 0, 0, false, false, err
		}
	}
	if err := t.setKey(w, n, pos, childSep); err != nil {
		return 0, 0, false, false, err
	}
	if err := w.Write64(t.childAddr(n, pos+1), childRight); err != nil {
		return 0, 0, false, false, err
	}
	cnt++
	if err := t.setMeta(w, n, false, cnt); err != nil {
		return 0, 0, false, false, err
	}
	if cnt <= t.cfg.MaxKeys {
		return 0, 0, false, added, nil
	}
	// Split the internal node: middle key moves up.
	mid := cnt / 2
	sep = t.key(n, mid)
	nr := w.Alloc(t.internalSize())
	moved := cnt - mid - 1
	if err := t.setMeta(w, nr, false, moved); err != nil {
		return 0, 0, false, false, err
	}
	for i := 0; i < moved; i++ {
		if err := t.setKey(w, nr, i, t.key(n, mid+1+i)); err != nil {
			return 0, 0, false, false, err
		}
	}
	for i := 0; i <= moved; i++ {
		if err := w.Write64(t.childAddr(nr, i), t.child(n, mid+1+i)); err != nil {
			return 0, 0, false, false, err
		}
	}
	if err := t.setMeta(w, n, false, mid); err != nil {
		return 0, 0, false, false, err
	}
	return sep, nr, true, added, nil
}

func (t *Tree) insertLeaf(w Writer, n, k uint64, v []byte) (sep, right uint64, split, added bool, err error) {
	pos, eq := t.findPos(n, k)
	if eq {
		// Overwrite in place.
		return 0, 0, false, false, w.WriteBytes(t.valAddr(n, pos), v)
	}
	cnt := t.count(n)
	if err := t.openSlot(w, n, pos, cnt, k); err != nil {
		return 0, 0, false, false, err
	}
	if err := w.WriteBytes(t.valAddr(n, pos), v); err != nil {
		return 0, 0, false, false, err
	}
	cnt++
	if err := t.setMeta(w, n, true, cnt); err != nil {
		return 0, 0, false, false, err
	}
	if cnt <= t.cfg.LeafCap {
		return 0, 0, false, true, nil
	}
	// Split the leaf: upper half moves to a new right sibling.
	mid := cnt / 2
	nr := w.Alloc(t.leafSize())
	moved := cnt - mid
	if err := t.setMeta(w, nr, true, moved); err != nil {
		return 0, 0, false, false, err
	}
	for i := 0; i < moved; i++ {
		if err := t.setKey(w, nr, i, t.key(n, mid+i)); err != nil {
			return 0, 0, false, false, err
		}
		if err := t.copyVal(w, n, mid+i, nr, i); err != nil {
			return 0, 0, false, false, err
		}
	}
	if err := w.Write64(nr+nodeNext, t.ld.Load64(n+nodeNext)); err != nil {
		return 0, 0, false, false, err
	}
	if err := w.Write64(n+nodeNext, nr); err != nil {
		return 0, 0, false, false, err
	}
	if err := t.setMeta(w, n, true, mid); err != nil {
		return 0, 0, false, false, err
	}
	return t.key(nr, 0), nr, true, true, nil
}

// copyVal moves one record between slots: its used prefix, nothing past it.
func (t *Tree) copyVal(w Writer, from uint64, fi int, to uint64, ti int) error {
	src, n := t.valAddr(from, fi), t.cfg.ValueSize
	if t.cfg.LenPrefix {
		n = t.usedLen(t.ld.Load64(src))
	}
	buf := make([]byte, n)
	t.ld.Read(src, buf)
	return w.WriteBytes(t.valAddr(to, ti), buf)
}

// openSlot makes room at pos in a leaf holding cnt records and stores k
// there: records [pos, cnt) move one slot up, the values one by one and the
// key run, new key in front, as ONE span write.
func (t *Tree) openSlot(w Writer, n uint64, pos, cnt int, k uint64) error {
	for i := cnt; i > pos; i-- {
		if err := t.copyVal(w, n, i-1, n, i); err != nil {
			return err
		}
	}
	at := t.keyAddr(n, pos)
	run := make([]byte, (cnt-pos+1)*8)
	binary.LittleEndian.PutUint64(run, k)
	t.ld.Read(at, run[8:])
	return w.WriteBytes(at, run)
}

// closeSlot removes the record at pos from a leaf holding cnt: records
// (pos, cnt) move one slot down, the key run again as one span write.
func (t *Tree) closeSlot(w Writer, n uint64, pos, cnt int) error {
	for i := pos; i < cnt-1; i++ {
		if err := t.copyVal(w, n, i+1, n, i); err != nil {
			return err
		}
	}
	at := t.keyAddr(n, pos)
	run := make([]byte, (cnt-1-pos)*8)
	t.ld.Read(at+8, run)
	return w.WriteBytes(at, run)
}
