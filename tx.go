package rewind

import (
	"errors"
	"fmt"

	"github.com/rewind-db/rewind/internal/core"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
)

// Tx is a handle on one REWIND transaction. It corresponds to the
// transaction identifier the runtime creates at the top of a
// persistent_atomic block (paper §2, Listing 2): every critical update goes
// through Write64/WriteBytes, which log ahead of the write (WAL), and the
// block ends with Commit or Rollback.
//
// Tx wraps a core.Txn handle that pins the transaction's log shard and
// table entry, so every call below goes straight to the shard — no global
// manager mutex, no tid-keyed map lookup on the hot path.
//
// A Tx is not safe for concurrent use by multiple goroutines; run one
// transaction per goroutine instead (the manager itself is concurrent).
type Tx struct {
	s    *Store
	h    *core.Txn
	done bool
}

// Begin starts a transaction.
func (s *Store) Begin() *Tx {
	return &Tx{s: s, h: s.tm.Begin()}
}

// BeginOn starts a transaction pinned to log shard shard%NumShards. Callers
// that funnel all writers of one datum onto one shard inherit the shard
// log's FIFO flush order as a crash-consistency guarantee: the set of
// transactions that recovery declares winners is always a prefix of that
// datum's commit order (no committed-later transaction can survive a crash
// that kills a committed-earlier one).
func (s *Store) BeginOn(shard int) *Tx {
	return &Tx{s: s, h: s.tm.BeginOn(shard)}
}

// NumShards reports the number of log shards (Options.LogShards resolved).
func (s *Store) NumShards() int { return s.tm.NumShards() }

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.h.ID() }

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = errors.New("rewind: transaction already finished")

func (tx *Tx) active() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// Write64 logs and applies one word write (the expansion of a critical
// update inside a persistent_atomic block).
func (tx *Tx) Write64(addr, val uint64) error {
	if err := tx.active(); err != nil {
		return err
	}
	return tx.h.Write64(addr, val)
}

// WriteBytes logs and applies a multi-word write as a single span record:
// one log insert (and one flush + fence under Simple/Optimized) covers the
// whole run, instead of one per word. addr must be 8-byte aligned
// (core.ErrUnalignedWrite otherwise); a final partial word is
// read-modified-written, preserving the bytes past len(p).
func (tx *Tx) WriteBytes(addr uint64, p []byte) error {
	if err := tx.active(); err != nil {
		return err
	}
	return tx.h.WriteBytes(addr, p)
}

// Read64 loads a word. Under UndoRedo reads are direct — writes are already
// applied in place; no logging. Under RedoOnly the transaction's private
// buffer overlays the shared image, so the transaction sees its own writes.
func (tx *Tx) Read64(addr uint64) uint64 { return tx.h.Read64(addr) }

// ReadBytes reads n bytes at addr, overlaying the transaction's own
// unpublished writes under RedoOnly.
func (tx *Tx) ReadBytes(addr uint64, n int) []byte { return tx.h.ReadBytes(addr, n) }

// Buffered reports whether this transaction stages writes in a private
// redo buffer (Options.CommitMode == RedoOnly) rather than applying them
// in place. Callers that read shared memory directly — bypassing
// Read64/ReadBytes — must consult the transaction's reads when this is
// true, or they will miss its own uncommitted writes.
func (tx *Tx) Buffered() bool { return tx.h.Buffered() }

// OnPublish registers fn to run exactly once inside Commit, after the
// transaction's END record has joined its shard log (fixing its commit
// order) and its writes are visible in shared memory — in place all along
// under UndoRedo, right after the private buffer is applied under RedoOnly
// — but strictly before Commit waits on any flush or fence. Rollback
// discards the hook. Structures that track write visibility (the kv
// index's seqlock windows and leaf latches) hang their close on this: it
// is the earliest point dependent writers may be admitted without
// breaking the shard log's commit-order prefix property, and it keeps
// latch-hold spans free of commit-wait time.
func (tx *Tx) OnPublish(fn func()) { tx.h.OnPublish(fn) }

// Observe attaches an observability span to the transaction: Commit will
// record its per-phase pipeline timings (latch wait, log append, group
// gather, flush+fence, publish) into span as well as the store-wide
// histograms. A nil span (or a store opened without Options.Obs) is free.
func (tx *Tx) Observe(span *obs.Span) { tx.h.Observe(span) }

// Alloc allocates a persistent block. The allocation itself is not undone
// by rollback (a crash or abort merely leaks it, as in the paper's model);
// allocate first, then publish the block with logged writes.
func (tx *Tx) Alloc(size int) uint64 { return tx.s.alloc.Alloc(size) }

// Free schedules deallocation of a block for after commit (a DELETE record,
// §4.3). The paper's Listing 2 places delete(n) after tm->commit; this API
// makes the deferral explicit and crash-safe: if the transaction rolls
// back, the block stays allocated.
func (tx *Tx) Free(addr uint64) error {
	if err := tx.active(); err != nil {
		return err
	}
	return tx.h.Delete(addr)
}

// Commit ends the transaction, making its updates durable (§4.3): Publish,
// then WaitDurable on the ticket.
func (tx *Tx) Commit() error {
	if err := tx.active(); err != nil {
		return err
	}
	tx.done = true
	return tx.h.Commit()
}

// Ticket names one published commit; Store.WaitDurable turns it into a
// durability guarantee. A plain value, free to copy, compare and drop: a
// ticket nobody waits on costs nothing and its commit becomes durable with
// the next flush of its log shard anyway. The zero Ticket is already
// durable.
type Ticket = core.Ticket

// Publish ends the transaction without waiting for durability: its END
// record joins its shard's log (fixing its place in the commit order), the
// OnPublish hook fires, and the returned ticket names the flush still owed.
// The transaction's writes are visible to everyone from here on; they
// survive a crash only once WaitDurable(ticket) has returned. Outside
// Options.GroupCommit the END is flushed here and the ticket is born
// durable.
func (tx *Tx) Publish() (Ticket, error) {
	if err := tx.active(); err != nil {
		return Ticket{}, err
	}
	tx.done = true
	return tx.h.Publish()
}

// Ticket returns the transaction's commit ticket, valid from the OnPublish
// hook onward (the zero Ticket before).
func (tx *Tx) Ticket() Ticket { return tx.h.Ticket() }

// WaitDurable blocks until the commit t names is durable. It returns at
// once when a flush already covered it — whoever asked for that flush —
// and otherwise joins or leads the log shard's group-commit round. span,
// when non-nil, is charged the wait's gather and flush+fence phases.
func (s *Store) WaitDurable(t Ticket, span *obs.Span) { s.tm.WaitDurable(t, span) }

// Rollback aborts the transaction, restoring every logged location to its
// previous value (§4.4).
func (tx *Tx) Rollback() error {
	if err := tx.active(); err != nil {
		return err
	}
	tx.done = true
	return tx.h.Rollback()
}

// Atomic runs fn inside a transaction — the library form of the paper's
// persistent_atomic block (Listing 1). A nil return commits; a non-nil
// return (or a panic, which is re-raised) rolls back. An injected NVM
// crash unwinding through the block is passed through untouched: a machine
// that lost power cannot run a rollback, and the recovery at the next Open
// aborts the transaction instead.
func (s *Store) Atomic(fn func(tx *Tx) error) error {
	tx := s.Begin()
	_, err := runAtomic(tx, fn)
	if err == nil {
		tx.h.WaitDurable()
	}
	return err
}

// PublishOn is Atomic pinned to a log shard (BeginOn) and without the
// durability wait: a nil return from fn publishes the transaction and
// hands back its ticket for WaitDurable.
func (s *Store) PublishOn(shard int, fn func(tx *Tx) error) (Ticket, error) {
	return runAtomic(s.BeginOn(shard), fn)
}

func runAtomic(tx *Tx, fn func(tx *Tx) error) (Ticket, error) {
	defer func() {
		if v := recover(); v != nil {
			if !tx.done && !nvm.IsCrash(v) {
				if rbErr := tx.Rollback(); rbErr != nil {
					panic(fmt.Sprintf("rewind: rollback during panic failed: %v (panic: %v)", rbErr, v))
				}
			}
			panic(v)
		}
	}()
	if err := fn(tx); err != nil {
		if rbErr := tx.Rollback(); rbErr != nil {
			return Ticket{}, fmt.Errorf("rewind: rollback failed: %v (after %w)", rbErr, err)
		}
		return Ticket{}, err
	}
	return tx.Publish()
}
