package btree

// Optimistic read traversal — the tree half of the latch-free read path
// (DESIGN.md §6).
//
// SeekRecord and ScanRecords walk the tree WITHOUT any synchronization
// against writers, for callers that bracket the walk in a seqlock-style
// validation (the kv package's stripes): snapshot the stripe's version
// counter, traverse, re-check the counter, and discard the result if a
// writer overlapped. Because a mutation may be in flight underneath them,
// these functions promise only two things:
//
//   - They never block, never panic, and always terminate, whatever
//     half-written state they race over: node counts are clamped to the
//     physical array capacity, every pointer is bounds-checked against the
//     arena before it is dereferenced, the descent is depth-bounded, and a
//     leaf-chain walk is step-bounded. A torn traversal may return garbage
//     — the caller's validation rejects it.
//
//   - On a quiescent tree they are exact: all defensive bounds are
//     unreachable on a well-formed tree (valid pointers, depth far below
//     maxReadDepth, at most one leaf per record run), so a traversal whose
//     seqlock validation passes — proving no writer overlapped — returned
//     the same answer Lookup/Scan would have.
//
// They return record ADDRESSES rather than copied values so the caller can
// copy out only the bytes its record layout actually uses (kv reads the
// length word first and copies just the payload), instead of the full
// ValueSize buffer the latched Lookup/Scan allocate per record.

// maxReadDepth bounds an optimistic descent. A B+-tree with fan-out >= 2
// over a 2^64 keyspace is at most ~64 levels deep; a descent longer than
// that can only mean the reader is chasing pointers through a node being
// concurrently rewritten (or recycled), so it gives up and lets the
// seqlock validation trigger a retry.
const maxReadDepth = 64

// validNode reports whether addr can hold a node of n bytes inside the
// arena. Optimistic readers check this before every dereference: a node
// freed by a committed delete may be recycled and scribbled by another
// stripe's writer while a stale reader still holds its address, so any
// word — including "pointers" — may be arbitrary bytes.
func (t *Tree) validNode(addr uint64, n int) bool {
	size := uint64(t.mem.Size())
	return addr != 0 && addr%8 == 0 && addr < size && size-addr >= uint64(n)
}

// readMeta loads a node's meta word once and returns its leaf bit and its
// record count clamped to the physical array capacity (cap+1: inserts
// overflow one slot before splitting), so a torn or scribbled meta word
// cannot send a loop past the allocation.
func (t *Tree) readMeta(n uint64) (leaf bool, cnt int) {
	meta := t.ld.Load64(n + nodeMeta)
	leaf = meta&1 == 1
	max := t.cfg.MaxKeys + 1
	if leaf {
		max = t.cfg.LeafCap + 1
	}
	if c := meta >> 1; c < uint64(max) {
		max = int(c)
	}
	return leaf, max
}

// findPosIn is findPos with the caller-clamped count.
func (t *Tree) findPosIn(n uint64, k uint64, cnt int) (int, bool) {
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if t.key(n, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < cnt && t.key(n, lo) == k
}

// SeekRecord optimistically descends to the record stored under k and
// returns its value address. It takes no latches and is safe to run
// concurrently with mutations under the contract above: the result is
// meaningful only if the caller's seqlock validation proves the traversal
// raced no writer. A traversal that trips a defensive bound reports
// "absent", which the validation then rejects (the bounds are unreachable
// on a quiescent tree).
func (t *Tree) SeekRecord(k uint64) (addr uint64, ok bool) {
	n := t.root()
	for depth := 0; depth < maxReadDepth; depth++ {
		if !t.validNode(n, nodeKeys) {
			return 0, false
		}
		leaf, cnt := t.readMeta(n)
		if leaf {
			if !t.validNode(n, t.leafSize()) {
				return 0, false
			}
			pos, eq := t.findPosIn(n, k, cnt)
			if !eq {
				return 0, false
			}
			return t.valAddr(n, pos), true
		}
		if !t.validNode(n, t.internalSize()) {
			return 0, false
		}
		pos, eq := t.findPosIn(n, k, cnt)
		if eq {
			pos++ // keys equal to the separator live in the right child
		}
		n = t.child(n, pos)
	}
	return 0, false
}

// ScanRecords optimistically walks the records with keys in [from, to] in
// key order, calling fn with each record's key and value address until fn
// returns false. Like SeekRecord it takes no latches; the caller validates
// afterwards. The return value is false when the walk tripped a defensive
// bound — an invalid pointer, an over-deep descent, or more leaf-chain
// steps than the tree has records (a next-pointer cycle through recycled
// nodes) — all unreachable on a quiescent tree, so a false return under a
// passing validation cannot happen and a false under a failing one is just
// another retry.
func (t *Tree) ScanRecords(from, to uint64, fn func(k, addr uint64) bool) bool {
	n := t.root()
	leaf, cnt := false, 0
	for depth := 0; ; depth++ {
		if depth >= maxReadDepth || !t.validNode(n, nodeKeys) {
			return false
		}
		if leaf, cnt = t.readMeta(n); leaf {
			break
		}
		if !t.validNode(n, t.internalSize()) {
			return false
		}
		pos, eq := t.findPosIn(n, from, cnt)
		if eq {
			pos++
		}
		n = t.child(n, pos)
	}
	// The arena cannot hold more leaves than its size divided by the leaf
	// footprint, so any longer next-chain walk is a cycle through recycled
	// nodes. (The tree's own record count is no use as a bound here — it is
	// itself a word a racing writer may be mid-updating.)
	maxSteps := t.mem.Size()/t.leafSize() + 2
	for steps := 0; n != 0; steps++ {
		if steps >= maxSteps || !t.validNode(n, t.leafSize()) {
			return false
		}
		if steps > 0 {
			leaf, cnt = t.readMeta(n)
		}
		if !leaf {
			return false
		}
		i := 0
		if steps == 0 {
			// Keys below from sit only in the first leaf: search past them
			// instead of loading each one.
			i, _ = t.findPosIn(n, from, cnt)
		}
		for ; i < cnt; i++ {
			k := t.key(n, i)
			if k < from {
				continue
			}
			if k > to {
				return true
			}
			if !fn(k, t.valAddr(n, i)) {
				return true
			}
		}
		n = t.mem.Load64(n + nodeNext)
	}
	return true
}
