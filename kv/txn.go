package kv

import (
	"bytes"
	"errors"
	"sort"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/obs"
)

// Txn errors.
var (
	// ErrTxnFinished is returned by every Txn method after Commit or
	// Rollback has run.
	ErrTxnFinished = errors.New("kv: transaction already finished")
	// ErrTxnConflict is returned by Commit when a for-update read no longer
	// matches the committed state: the transaction applied nothing and is
	// finished — rebuild it and retry.
	ErrTxnConflict = errors.New("kv: commit conflict: a for-update read changed")
)

// errCasStop aborts a conditional operation's transaction after its
// re-check decided the outcome; the captured result carries the answer.
var errCasStop = errors.New("kv: conditional op decided")

// txnWrite is one buffered mutation.
type txnWrite struct {
	val []byte
	del bool
}

// txnRead is one for-update read snapshot, revalidated at commit.
type txnRead struct {
	val     []byte
	present bool
}

// Txn is an interactive transaction handle: writes buffer in a private
// overlay (read-your-writes, nothing visible or logged until Commit) and
// GetForUpdate reads are revalidated at commit time — optimistic
// concurrency control, so the handle holds NO kv latches between calls and
// may idle arbitrarily long (e.g. across network round trips) without
// blocking writers. Commit applies the whole write set in one REWIND
// transaction: all-or-none under any crash, exactly like Batch.
//
// A Txn is not safe for concurrent use; callers (the server pins each
// handle to one connection) serialize access themselves.
type Txn struct {
	s      *Store
	writes map[uint64]txnWrite
	reads  map[uint64]txnRead
	done   bool
}

// BeginTxn opens an interactive transaction. It takes no locks and writes
// nothing durable; an abandoned handle costs only its buffered overlay.
func (s *Store) BeginTxn() *Txn {
	s.txnBegins.Add(1)
	return &Txn{
		s:      s,
		writes: map[uint64]txnWrite{},
		reads:  map[uint64]txnRead{},
	}
}

// Pending returns the number of buffered writes.
func (t *Txn) Pending() int { return len(t.writes) }

// Get returns key's value as this transaction sees it: its own buffered
// write if one exists, else the committed value via the latch-free read
// path. Plain Gets are NOT revalidated at commit; use GetForUpdate for
// reads the commit must depend on.
func (t *Txn) Get(key uint64) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnFinished
	}
	if w, ok := t.writes[key]; ok {
		return w.val, !w.del, nil
	}
	if r, ok := t.reads[key]; ok {
		return r.val, r.present, nil
	}
	v, ok := t.s.Get(key)
	return v, ok, nil
}

// GetForUpdate is Get plus a commit-time dependency: the first for-update
// read of a key snapshots its committed state, and Commit validates that
// the key still matches the snapshot — under the stripe latches, before
// applying anything — aborting with ErrTxnConflict if it changed. This is
// the read-modify-write primitive: no latch is held between the read and
// the commit, lost updates are converted into clean retries.
func (t *Txn) GetForUpdate(key uint64) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnFinished
	}
	if w, ok := t.writes[key]; ok {
		return w.val, !w.del, nil
	}
	if r, ok := t.reads[key]; ok {
		return r.val, r.present, nil
	}
	v, ok := t.s.Get(key)
	t.reads[key] = txnRead{val: v, present: ok}
	return v, ok, nil
}

// Put buffers a write of value under key.
func (t *Txn) Put(key uint64, value []byte) error {
	if t.done {
		return ErrTxnFinished
	}
	if len(value) > t.s.cfg.MaxValue {
		return ErrValueTooLarge
	}
	t.writes[key] = txnWrite{val: append([]byte(nil), value...)}
	return nil
}

// Delete buffers a removal of key, reporting whether the transaction
// currently sees it as present.
func (t *Txn) Delete(key uint64) (bool, error) {
	if t.done {
		return false, ErrTxnFinished
	}
	var present bool
	if w, ok := t.writes[key]; ok {
		present = !w.del
	} else if r, ok := t.reads[key]; ok {
		present = r.present
	} else {
		_, present = t.s.Get(key)
	}
	t.writes[key] = txnWrite{del: true}
	return present, nil
}

// Rollback discards the transaction: the overlay is dropped, nothing was
// ever logged, no durable state changes. Zero log traffic by construction —
// the buffered writes never existed outside this handle.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	t.s.txnRollbacks.Add(1)
	return nil
}

// Commit validates every for-update read and applies the buffered write
// set in ONE REWIND transaction — all-or-none under any crash. Validation
// runs under the same stripe latches the writes commit under (exclusive:
// updatePinned for a single stripe, update for several), BEFORE any
// mutation; a mismatch aborts the empty transaction and returns
// ErrTxnConflict. Either way the handle is finished.
func (t *Txn) Commit() error { return t.CommitSpan(nil) }

// CommitSpan is Commit with an observability span attached (see PutSpan).
func (t *Txn) CommitSpan(span *obs.Span) error {
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	s := t.s
	if len(t.writes) == 0 && len(t.reads) == 0 {
		s.txnCommits.Add(1)
		return nil
	}
	// Involved stripes: everything written plus everything validated.
	involved := map[int]bool{}
	keys := make([]uint64, 0, len(t.writes))
	for k := range t.writes {
		keys = append(keys, k)
		involved[s.stripeIndex(k)] = true
	}
	for k := range t.reads {
		involved[s.stripeIndex(k)] = true
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	idx := make([]int, 0, len(involved))
	for i := range involved {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	apply := func(tx *rewind.Tx) error {
		// Validate first: stripes are latched exclusive here, so committed
		// state is stable and nothing has been mutated yet — a conflict
		// aborts a transaction that logged nothing.
		for k, r := range t.reads {
			addr, found := s.stripeOf(k).tree.SeekRecord(k)
			if found != r.present {
				return errCasStop
			}
			if found && !bytes.Equal(s.readValue(addr), r.val) {
				return errCasStop
			}
		}
		var rec []byte
		for _, k := range keys {
			sp := s.stripeOf(k)
			w := t.writes[k]
			if w.del {
				if _, err := sp.tree.Delete(tx, k); err != nil {
					return err
				}
			} else {
				rec = s.encode(rec, w.val)
				if _, err := sp.tree.Insert(tx, k, rec); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var err error
	if len(idx) == 1 && !s.cfg.SerialWrites {
		var tk rewind.Ticket
		tk, err = s.updatePinned(s.stripes[idx[0]], span, apply)
		s.st.WaitDurable(tk, span)
	} else {
		err = s.update(idx, span, apply)
	}
	if errors.Is(err, errCasStop) {
		s.txnConflicts.Add(1)
		return ErrTxnConflict
	}
	if err != nil {
		return err
	}
	s.txnCommits.Add(1)
	return nil
}
