package rewind

import (
	"fmt"

	"github.com/rewind-db/rewind/internal/core"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
)

// Tx is one REWIND transaction. It corresponds to the transaction
// identifier the runtime creates at the top of a persistent_atomic block
// (paper §2, Listing 2): every critical update goes through
// Write64/WriteBytes, which log ahead of the write (WAL), blocks come from
// Alloc and go through Free (a DELETE record, §4.3: freed only once the
// transaction has committed), and the block ends with Commit — or Publish
// and a later WaitDurable — or Rollback. Read64/ReadBytes see the
// transaction's own unpublished writes under RedoOnly (Buffered), OnPublish
// hooks the moment its writes are visible and its commit order fixed, and
// Observe charges Commit's phases to a span.
//
// It is the transaction manager's own object, re-exported: every call goes
// straight to the transaction's log shard, and the manager keeps no table
// of running transactions.
//
// A Tx is not safe for concurrent use by multiple goroutines; run one
// transaction per goroutine instead (the manager itself is concurrent).
type Tx = core.Txn

// Ticket names one published commit; Store.WaitDurable turns it into a
// durability guarantee. A plain value, free to copy, compare and drop: a
// ticket nobody waits on costs nothing and its commit becomes durable with
// the next flush of its log shard anyway. The zero Ticket is already
// durable.
type Ticket = core.Ticket

// ErrTxDone is returned when a finished transaction is used again.
var ErrTxDone = core.ErrTxnFinished

// Begin starts a transaction.
func (s *Store) Begin() *Tx { return s.tm.Begin() }

// BeginOn starts a transaction pinned to log shard shard%NumShards. Callers
// that funnel all writers of one datum onto one shard inherit the shard
// log's FIFO flush order as a crash-consistency guarantee: the set of
// transactions that recovery declares winners is always a prefix of that
// datum's commit order (no committed-later transaction can survive a crash
// that kills a committed-earlier one).
func (s *Store) BeginOn(shard int) *Tx { return s.tm.BeginOn(shard) }

// NumShards reports the number of log shards (Options.LogShards resolved).
func (s *Store) NumShards() int { return s.tm.NumShards() }

// WaitDurable blocks until the commit t names is durable. It returns at
// once when a flush already covered it — whoever asked for that flush —
// and otherwise joins or leads the log shard's group-commit round. span,
// when non-nil, is charged the wait's gather and flush+fence phases.
func (s *Store) WaitDurable(t Ticket, span *obs.Span) { s.tm.WaitDurable(t, span) }

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
		tx.WaitDurable()
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
			if !tx.Done() && !nvm.IsCrash(v) {
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
