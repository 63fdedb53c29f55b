package btree

// Fine-grained write-path plumbing (DESIGN.md §8). These entry points let
// a caller that holds its own latches mutate ONE leaf — overwrite a value,
// insert into a leaf with room, delete without underflow — without running
// the full Insert/Delete descent under a structure-wide latch. The
// contract, which the kv package's stripes uphold:
//
//   - The tree's internal structure is stable for the duration (the kv
//     stripe holds its writer lock shared: splits, merges, and root
//     changes all require it exclusive). Which leaf owns a key is decided
//     entirely by internal separators, so SeekLeafNode's latch-free
//     descent is exact and the leaf it returns stays the owner.
//
//   - The caller holds the leaf's latch from before LeafFind until after
//     the mutation publishes, so positions computed up front stay valid
//     and leaf reads see the latest published contents.
//
//   - A structural mutation brackets AddLen — the shared record-count
//     read-modify-write — with the header-count latch (CountAddr), held
//     until publish; hierarchy order is leaf first, then header.
//
// All mutations go through the Writer, so crash recovery and rollback
// treat them exactly like the coarse path's.

// SeekLeafNode descends to the leaf that owns k. It takes no latches:
// the caller guarantees internal-structure stability (see above).
func (t *Tree) SeekLeafNode(k uint64) uint64 {
	n := t.root()
	for !t.isLeaf(n) {
		pos, eq := t.findPos(n, k)
		if eq {
			pos++ // keys equal to the separator live in the right child
		}
		n = t.child(n, pos)
	}
	return n
}

// LeafFind locates k in a latched leaf: the position of the first key >= k
// and whether it equals k.
func (t *Tree) LeafFind(leaf, k uint64) (pos int, eq bool) {
	return t.findPos(leaf, k)
}

// LeafHasRoom reports whether a latched leaf can take one more record
// without splitting.
func (t *Tree) LeafHasRoom(leaf uint64) bool {
	return t.count(leaf) < t.cfg.LeafCap
}

// LeafCanShrink reports whether a latched leaf can lose one record without
// rebalancing: it stays at or above the underflow floor, or it is the root
// (a root leaf never rebalances — it may shrink to empty).
func (t *Tree) LeafCanShrink(leaf uint64) bool {
	return t.count(leaf) > t.minLeaf() || t.root() == leaf
}

// CountAddr returns the address of the header record-count word — the one
// cross-leaf location structural leaf mutations touch — for use as a latch
// key around AddLen.
func (t *Tree) CountAddr() uint64 { return t.hdr + hdrCount }

// OverwriteInLeaf replaces the value at pos in a latched leaf — the
// non-structural fast path: no key moves, no count change, one span write.
func (t *Tree) OverwriteInLeaf(w Writer, leaf uint64, pos int, v []byte) error {
	if err := t.checkVal(v); err != nil {
		return err
	}
	return w.WriteBytes(t.valAddr(leaf, pos), v)
}

// InsertInLeaf inserts k/v at pos in a latched leaf that has room
// (LeafHasRoom). It does NOT update the tree's record count — the caller
// follows with AddLen under the header-count latch.
func (t *Tree) InsertInLeaf(w Writer, leaf uint64, pos int, k uint64, v []byte) error {
	if err := t.checkVal(v); err != nil {
		return err
	}
	t = t.writeView(w)
	cnt := t.count(leaf)
	if err := t.openSlot(w, leaf, pos, cnt, k); err != nil {
		return err
	}
	if err := w.WriteBytes(t.valAddr(leaf, pos), v); err != nil {
		return err
	}
	return t.setMeta(w, leaf, true, cnt+1)
}

// DeleteInLeaf removes the record at pos from a latched leaf that can
// shrink (LeafCanShrink). Like InsertInLeaf it leaves the tree's record
// count to the caller's AddLen.
func (t *Tree) DeleteInLeaf(w Writer, leaf uint64, pos int) error {
	t = t.writeView(w)
	cnt := t.count(leaf)
	if err := t.closeSlot(w, leaf, pos, cnt); err != nil {
		return err
	}
	return t.setMeta(w, leaf, true, cnt-1)
}

// AddLen adjusts the tree's record count by delta. The caller holds the
// CountAddr latch across the call and through publish — the count is the
// one word every structural writer read-modify-writes.
func (t *Tree) AddLen(w Writer, delta int) error {
	t = t.writeView(w)
	return w.Write64(t.hdr+hdrCount, uint64(t.Len()+delta))
}

// LeafValueAddr returns the arena address of the value slot at pos in a
// leaf, for callers that read record payloads under their own leaf latch
// or seqlock validation (the tree does no synchronization here).
func (t *Tree) LeafValueAddr(leaf uint64, pos int) uint64 {
	return t.valAddr(leaf, pos)
}
