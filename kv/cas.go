package kv

import (
	"bytes"
	"errors"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/obs"
)

// CompareAndSwap atomically replaces key's value with value iff the
// current state matches expect:
//
//   - expect == nil means "expect absent" (a non-nil empty slice means
//     "expect the empty value present");
//   - value == nil means "delete on match" (a non-nil empty slice stores
//     the empty value).
//
// It returns whether the swap applied; false with a nil error is a clean
// condition miss. The check rides the seqlock read path (an optimistic
// pre-check rejects obvious misses with no latch traffic) and the
// linearization point is a re-check under the leaf latch, from which the
// swap commits through the single-leaf overwrite fast path whenever the
// mutation is non-structural.
func (s *Store) CompareAndSwap(key uint64, expect, value []byte) (bool, error) {
	swapped, t, err := s.PublishCAS(key, expect, value, nil)
	s.st.WaitDurable(t, nil)
	return swapped, err
}

// PutIfAbsent durably stores value under key iff no value is present:
// CompareAndSwap with a nil expect. Exactly one of any set of concurrent
// PutIfAbsent callers for one key wins.
func (s *Store) PutIfAbsent(key uint64, value []byte) (bool, error) {
	return s.CompareAndSwap(key, nil, value)
}

// PublishCAS is CompareAndSwap up to commit publish (see PublishPut), with
// an observability span attached. A swap that applied without mutating
// (expect-absent delete of an absent key) or did not apply returns the
// zero ticket: there is nothing of its own to wait for.
func (s *Store) PublishCAS(key uint64, expect, value []byte, span *obs.Span) (bool, rewind.Ticket, error) {
	var none rewind.Ticket
	if value != nil && len(value) > s.cfg.MaxValue {
		return false, none, ErrValueTooLarge
	}
	s.casAttempts.Add(1)
	if len(expect) > s.cfg.MaxValue {
		return false, none, nil // no stored record can ever match
	}
	idx := s.stripeIndex(key)
	sp := s.stripes[idx]
	t := sp.tree
	matches := func(cur []byte, found bool) bool {
		if expect == nil {
			return !found
		}
		return found && bytes.Equal(cur, expect)
	}

	if s.cfg.SerialWrites {
		swapped := false
		err := s.update([]int{idx}, span, func(tx *rewind.Tx) error {
			addr, found := t.SeekRecord(key)
			var cur []byte
			if found {
				cur = s.readValue(addr)
			}
			if !matches(cur, found) {
				return errCasStop
			}
			if value != nil {
				swapped = true
				_, err := t.Insert(tx, key, s.encode(nil, value))
				return err
			}
			if found {
				swapped = true
				_, err := t.Delete(tx, key)
				return err
			}
			swapped = true // absent + expect-absent + delete: nothing to do
			return errCasStop
		})
		if errors.Is(err, errCasStop) {
			if swapped {
				s.casApplied.Add(1)
			}
			return swapped, none, nil
		}
		if err != nil {
			return false, none, err
		}
		s.casApplied.Add(1)
		return true, none, nil
	}

	// Optimistic pre-check: one seqlock-validated read. A clean mismatch is
	// the common contended outcome (lost CAS races) and costs no latch; a
	// match or a torn read falls through to the authoritative latched check.
	if !s.cfg.ExclusiveReads {
		if seq := sp.seq.Load(); seq&writerMask == 0 {
			addr, found := t.SeekRecord(key)
			var cur []byte
			if found {
				cur = s.readValue(addr)
			}
			if sp.seq.Load() == seq && !matches(cur, found) {
				return false, none, nil
			}
		}
	}

	lw := s.latchStart()
	sp.wmu.RLock()
	leaf := t.SeekLeafNode(key)
	if sp.latches.Lock(leaf) {
		s.latchWaits.Add(1)
	}
	s.latchDone(lw, span)
	// Under the shared wmu and the leaf latch the record is stable: this
	// read is the linearization point's input.
	pos, eq := t.LeafFind(leaf, key)
	var cur []byte
	if eq {
		cur = s.readValue(t.LeafValueAddr(leaf, pos))
	}
	unlatch := func() {
		sp.latches.Unlock(leaf)
		sp.wmu.RUnlock()
	}
	if !matches(cur, eq) {
		unlatch()
		return false, none, nil
	}
	// applied closes a commit path's result: a published swap counts.
	applied := func(tk rewind.Ticket, err error) (bool, rewind.Ticket, error) {
		if err != nil {
			return false, none, err
		}
		s.casApplied.Add(1)
		return true, tk, nil
	}
	switch {
	case eq && value != nil:
		// Matched overwrite: the PR 7 fast path — one span write, no count
		// change.
		s.fastPath.Add(1)
		return applied(s.commitLeafPath(sp, leaf, 0, span, func(tx *rewind.Tx) error {
			return t.OverwriteInLeaf(tx, leaf, pos, s.encode(nil, value))
		}))
	case eq && t.LeafCanShrink(leaf):
		// Matched delete, non-structural.
		return applied(s.commitLeafPath(sp, leaf, -1, span, func(tx *rewind.Tx) error {
			return t.DeleteInLeaf(tx, leaf, pos)
		}))
	case !eq && value == nil:
		// Expect-absent delete: already absent, nothing to mutate.
		unlatch()
		return applied(none, nil)
	case !eq && t.LeafHasRoom(leaf):
		// Put-if-absent, non-structural.
		return applied(s.commitLeafPath(sp, leaf, +1, span, func(tx *rewind.Tx) error {
			return t.InsertInLeaf(tx, leaf, pos, key, s.encode(nil, value))
		}))
	}
	// Structural (split or rebalance): restart on the stripe-exclusive tier
	// and re-check there — the latches dropped, so the condition may have
	// changed under a racing writer.
	unlatch()
	s.fallbacks.Add(1)
	tk, err := s.updatePinned(sp, span, func(tx *rewind.Tx) error {
		addr, found := t.SeekRecord(key)
		var cur []byte
		if found {
			cur = s.readValue(addr)
		}
		if !matches(cur, found) {
			return errCasStop
		}
		if value != nil {
			_, err := t.Insert(tx, key, s.encode(nil, value))
			return err
		}
		_, err := t.Delete(tx, key)
		return err
	})
	if errors.Is(err, errCasStop) {
		return false, none, nil
	}
	return applied(tk, err)
}
