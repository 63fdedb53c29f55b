package btree

// Node migration for heap compaction.
//
// The kv-layer compactor empties mostly-dead heap segments by relocating
// the live tree nodes that still occupy them. MigrateRange is the
// tree-side primitive: it runs inside an ordinary transaction (any
// Writer), so crash-safety is inherited from the commit protocol — a crash
// mid-migration either replays the whole move or none of it, exactly like
// any other update. The caller is expected to fence the source range off
// in the allocator (pmem.SetReclaiming) first, so replacement nodes are
// never allocated back into the range being emptied.

// MigrateRange relocates tree nodes whose blocks overlap the heap range
// [lo, hi) into freshly allocated blocks outside it, updating the parent
// child pointer (or the header's root pointer) and the leaf chain, and
// freeing the old blocks through the Writer (deferred to commit for
// transactional writers). At most max nodes move per call; done reports
// whether no overlapping node remains, so bounded calls can be repeated
// until the range is clear. The tree header block itself is never moved —
// its address is published in durable structures the tree cannot see.
func (t *Tree) MigrateRange(w Writer, lo, hi uint64, max int) (moved int, done bool, err error) {
	if max <= 0 || hi <= lo {
		return 0, max > 0, nil
	}
	t = t.writeView(w)
	done = true
	budget := max
	var prevLeaf uint64

	overlaps := func(n uint64, size int) bool {
		return n < hi && n+uint64(size) > lo
	}

	// In-order walk. Visiting every node (not just in-range subtrees) is
	// what makes the leaf-chain fix possible: the predecessor of an
	// in-range leaf can live in any subtree, so the walk tracks the last
	// leaf seen — at its new address if this very call moved it.
	var walk func(slot, n uint64) error
	walk = func(slot, n uint64) error {
		leaf := t.isLeaf(n)
		size := t.internalSize()
		if leaf {
			size = t.leafSize()
		}
		if overlaps(n, size) {
			if budget <= 0 {
				done = false
			} else {
				nn, err := t.relocate(w, slot, n, size, leaf, prevLeaf)
				if err != nil {
					return err
				}
				n = nn
				budget--
				moved++
			}
		}
		if leaf {
			prevLeaf = n
			return nil
		}
		cnt := t.count(n)
		for i := 0; i <= cnt; i++ {
			if err := walk(t.childAddr(n, i), t.child(n, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.hdr+hdrRoot, t.root()); err != nil {
		return moved, false, err
	}
	return moved, done, nil
}

// relocate copies the node at n into a fresh block, repoints the referring
// slot (parent child pointer or header root), splices the leaf chain, and
// frees the old block. A leaf moves as what it holds — header and key
// array in one span, then each live record by copyVal — not as its whole
// footprint. All writes go through the Writer, so the move is atomic under
// the commit protocol.
func (t *Tree) relocate(w Writer, slot, n uint64, size int, leaf bool, prevLeaf uint64) (uint64, error) {
	nn := w.Alloc(size)
	if leaf {
		size = nodeKeys + (t.cfg.LeafCap+1)*8
	}
	buf := make([]byte, size)
	t.ld.Read(n, buf)
	if err := w.WriteBytes(nn, buf); err != nil {
		return 0, err
	}
	if leaf {
		for i, cnt := 0, t.count(n); i < cnt; i++ {
			if err := t.copyVal(w, n, i, nn, i); err != nil {
				return 0, err
			}
		}
	}
	if err := w.Write64(slot, nn); err != nil {
		return 0, err
	}
	if leaf && prevLeaf != 0 {
		if err := w.Write64(prevLeaf+nodeNext, nn); err != nil {
			return 0, err
		}
	}
	if err := w.Free(n); err != nil {
		return 0, err
	}
	return nn, nil
}
