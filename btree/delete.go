package btree

// Deletion with full rebalancing: underflowing nodes borrow from a sibling
// when possible and merge otherwise; the root collapses when an internal
// root runs out of separators. Every structural write goes through the
// Writer, so a recoverable deletion is undone wholesale by rollback or
// crash recovery; freed nodes use the Writer's deferred Free (DELETE
// records under REWIND), so their memory is only released after commit.

func (t *Tree) minLeaf() int     { return t.cfg.LeafCap / 2 }
func (t *Tree) minInternal() int { return t.cfg.MaxKeys / 2 }

// Delete removes k, reporting whether it was present.
func (t *Tree) Delete(w Writer, k uint64) (bool, error) {
	t = t.writeView(w)
	root := t.root()
	found, err := t.del(w, root, k)
	if err != nil || !found {
		return found, err
	}
	// Collapse an empty internal root.
	if !t.isLeaf(root) && t.count(root) == 0 {
		if err := w.Write64(t.hdr+hdrRoot, t.child(root, 0)); err != nil {
			return false, err
		}
		if err := w.Free(root); err != nil {
			return false, err
		}
	}
	if err := w.Write64(t.hdr+hdrCount, uint64(t.Len())-1); err != nil {
		return false, err
	}
	return true, nil
}

func (t *Tree) del(w Writer, n, k uint64) (bool, error) {
	if t.isLeaf(n) {
		pos, eq := t.findPos(n, k)
		if !eq {
			return false, nil
		}
		cnt := t.count(n)
		if err := t.closeSlot(w, n, pos, cnt); err != nil {
			return false, err
		}
		return true, t.setMeta(w, n, true, cnt-1)
	}
	pos, eq := t.findPos(n, k)
	if eq {
		pos++
	}
	c := t.child(n, pos)
	found, err := t.del(w, c, k)
	if err != nil || !found {
		return found, err
	}
	if t.underflows(c) {
		if err := t.rebalance(w, n, pos); err != nil {
			return false, err
		}
	}
	return true, nil
}

func (t *Tree) underflows(n uint64) bool {
	if t.isLeaf(n) {
		return t.count(n) < t.minLeaf()
	}
	return t.count(n) < t.minInternal()
}

func (t *Tree) canLend(n uint64) bool {
	if t.isLeaf(n) {
		return t.count(n) > t.minLeaf()
	}
	return t.count(n) > t.minInternal()
}

// rebalance fixes the underflowing child at parent position idx.
func (t *Tree) rebalance(w Writer, parent uint64, idx int) error {
	if idx > 0 && t.canLend(t.child(parent, idx-1)) {
		return t.borrowFromLeft(w, parent, idx)
	}
	if idx < t.count(parent) && t.canLend(t.child(parent, idx+1)) {
		return t.borrowFromRight(w, parent, idx)
	}
	if idx > 0 {
		return t.merge(w, parent, idx-1)
	}
	return t.merge(w, parent, idx)
}

func (t *Tree) borrowFromLeft(w Writer, parent uint64, idx int) error {
	c := t.child(parent, idx)
	left := t.child(parent, idx-1)
	lc, cc := t.count(left), t.count(c)
	if t.isLeaf(c) {
		// Shift c right and move left's last record to its front.
		if err := t.openSlot(w, c, 0, cc, t.key(left, lc-1)); err != nil {
			return err
		}
		if err := t.copyVal(w, left, lc-1, c, 0); err != nil {
			return err
		}
		if err := t.setMeta(w, c, true, cc+1); err != nil {
			return err
		}
		if err := t.setMeta(w, left, true, lc-1); err != nil {
			return err
		}
		// The separator becomes the moved key.
		return t.setKey(w, parent, idx-1, t.key(c, 0))
	}
	// Internal: rotate through the parent separator.
	for i := cc; i > 0; i-- {
		if err := t.setKey(w, c, i, t.key(c, i-1)); err != nil {
			return err
		}
	}
	for i := cc + 1; i > 0; i-- {
		if err := w.Write64(t.childAddr(c, i), t.child(c, i-1)); err != nil {
			return err
		}
	}
	if err := t.setKey(w, c, 0, t.key(parent, idx-1)); err != nil {
		return err
	}
	if err := w.Write64(t.childAddr(c, 0), t.child(left, lc)); err != nil {
		return err
	}
	if err := t.setKey(w, parent, idx-1, t.key(left, lc-1)); err != nil {
		return err
	}
	if err := t.setMeta(w, c, false, cc+1); err != nil {
		return err
	}
	return t.setMeta(w, left, false, lc-1)
}

func (t *Tree) borrowFromRight(w Writer, parent uint64, idx int) error {
	c := t.child(parent, idx)
	right := t.child(parent, idx+1)
	rc, cc := t.count(right), t.count(c)
	if t.isLeaf(c) {
		// Move right's first record to c's end, then shift right left.
		if err := t.setKey(w, c, cc, t.key(right, 0)); err != nil {
			return err
		}
		if err := t.copyVal(w, right, 0, c, cc); err != nil {
			return err
		}
		if err := t.closeSlot(w, right, 0, rc); err != nil {
			return err
		}
		if err := t.setMeta(w, c, true, cc+1); err != nil {
			return err
		}
		if err := t.setMeta(w, right, true, rc-1); err != nil {
			return err
		}
		return t.setKey(w, parent, idx, t.key(right, 0))
	}
	// Internal: rotate through the parent separator.
	if err := t.setKey(w, c, cc, t.key(parent, idx)); err != nil {
		return err
	}
	if err := w.Write64(t.childAddr(c, cc+1), t.child(right, 0)); err != nil {
		return err
	}
	if err := t.setKey(w, parent, idx, t.key(right, 0)); err != nil {
		return err
	}
	for i := 0; i < rc-1; i++ {
		if err := t.setKey(w, right, i, t.key(right, i+1)); err != nil {
			return err
		}
	}
	for i := 0; i < rc; i++ {
		if err := w.Write64(t.childAddr(right, i), t.child(right, i+1)); err != nil {
			return err
		}
	}
	if err := t.setMeta(w, c, false, cc+1); err != nil {
		return err
	}
	return t.setMeta(w, right, false, rc-1)
}

// merge folds child idx+1 into child idx and removes the separator.
func (t *Tree) merge(w Writer, parent uint64, idx int) error {
	left := t.child(parent, idx)
	right := t.child(parent, idx+1)
	lc, rc := t.count(left), t.count(right)
	if t.isLeaf(left) {
		for i := 0; i < rc; i++ {
			if err := t.setKey(w, left, lc+i, t.key(right, i)); err != nil {
				return err
			}
			if err := t.copyVal(w, right, i, left, lc+i); err != nil {
				return err
			}
		}
		if err := w.Write64(left+nodeNext, t.ld.Load64(right+nodeNext)); err != nil {
			return err
		}
		if err := t.setMeta(w, left, true, lc+rc); err != nil {
			return err
		}
	} else {
		// The separator descends between the merged key runs.
		if err := t.setKey(w, left, lc, t.key(parent, idx)); err != nil {
			return err
		}
		for i := 0; i < rc; i++ {
			if err := t.setKey(w, left, lc+1+i, t.key(right, i)); err != nil {
				return err
			}
		}
		for i := 0; i <= rc; i++ {
			if err := w.Write64(t.childAddr(left, lc+1+i), t.child(right, i)); err != nil {
				return err
			}
		}
		if err := t.setMeta(w, left, false, lc+1+rc); err != nil {
			return err
		}
	}
	// Remove separator idx and child idx+1 from the parent.
	pc := t.count(parent)
	for i := idx; i < pc-1; i++ {
		if err := t.setKey(w, parent, i, t.key(parent, i+1)); err != nil {
			return err
		}
	}
	for i := idx + 1; i < pc; i++ {
		if err := w.Write64(t.childAddr(parent, i), t.child(parent, i+1)); err != nil {
			return err
		}
	}
	if err := t.setMeta(w, parent, false, pc-1); err != nil {
		return err
	}
	return w.Free(right)
}
