package core

import (
	"sync"
	"testing"
	"time"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

func gcConfig(window time.Duration, max int) Config {
	return Config{
		Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch,
		BucketSize: 64, GroupSize: 8, RootBase: rootBase,
		GroupCommit: true, GroupCommitWindow: window, GroupCommitMax: max,
	}
}

// TestGroupCommitValidation pins the configuration gate: group commit
// generalizes the Batch log's group flush, so it requires exactly the
// configuration that has one.
func TestGroupCommitValidation(t *testing.T) {
	bad := []Config{
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Batch, GroupCommit: true, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, GroupCommit: true, RootBase: rootBase},
		{Policy: NoForce, Layers: TwoLayer, LogKind: rlog.Optimized, GroupCommit: true, RootBase: rootBase},
	}
	m, a, _ := newTM(t, gcConfig(0, 0)) // the good shape constructs fine
	_ = m
	for _, cfg := range bad {
		cfg.RootBase = rootBase + SlotsPerTM
		if _, err := New(a, cfg.withDefaults()); err == nil {
			t.Errorf("config %v accepted group commit", cfg)
		}
	}
}

// TestGroupCommitDurability is the contract the KV server acks on: once
// Commit returns under group commit, the transaction survives a crash —
// even with many goroutines committing concurrently through shared rounds.
func TestGroupCommitDurability(t *testing.T) {
	cfg := gcConfig(time.Millisecond, 8)
	m, a, tm := newTM(t, cfg)
	const workers, txnsPer = 8, 12
	data := dataBlock(a, workers*txnsPer, 0)

	// Two barriers per iteration force the transactions to genuinely
	// overlap — begin together, commit together — so rounds must form
	// even on a single-CPU scheduler (a lone committer deliberately
	// skips the gather window; this test is about the non-lone path).
	beginBar := make([]sync.WaitGroup, txnsPer)
	commitBar := make([]sync.WaitGroup, txnsPer)
	for i := 0; i < txnsPer; i++ {
		beginBar[i].Add(workers)
		commitBar[i].Add(workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPer; i++ {
				x := tm.Begin()
				slot := uint64(w*txnsPer + i)
				if err := x.Write64(data+slot*8, 1000+slot); err != nil {
					panic(err)
				}
				beginBar[i].Done()
				beginBar[i].Wait() // every worker has an open transaction
				if err := x.Commit(); err != nil {
					panic(err)
				}
				commitBar[i].Done()
				commitBar[i].Wait() // no one begins iteration i+1 early
			}
		}(w)
	}
	wg.Wait()

	st := tm.Stats().Shards[0]
	if st.GroupCommitRounds == 0 {
		t.Fatal("no group-commit rounds recorded")
	}
	if st.GroupCommitRounds >= st.Commits {
		t.Errorf("rounds %d >= commits %d: no batching happened under 8 concurrent committers",
			st.GroupCommitRounds, st.Commits)
	}
	if st.GroupedCommits == 0 {
		t.Error("no commit ever shared a round with another under 8 concurrent committers")
	}

	// Crash with everything acked; every write must be redone by recovery.
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	tm2 := reopenTM(t, m, cfg)
	for slot := uint64(0); slot < workers*txnsPer; slot++ {
		if got := tm2.Read64(data + slot*8); got != 1000+slot {
			t.Fatalf("slot %d = %d after recovery, want %d", slot, got, 1000+slot)
		}
	}
}

// TestGroupCommitSoloLeader pins the degenerate case: a single committer
// with a zero window flushes immediately and its END is durable when
// Commit returns — crash right after, recover, the write is there.
func TestGroupCommitSoloLeader(t *testing.T) {
	cfg := gcConfig(0, 1)
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 2, 0)

	x := tm.Begin()
	if err := x.Write64(data, 77); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	tm2 := reopenTM(t, m, cfg)
	if got := tm2.Read64(data); got != 77 {
		t.Fatalf("acked write = %d after crash, want 77", got)
	}
	if got := tm2.Stats().Shards[0].GroupCommitRounds; got != 0 {
		// Fresh manager: rounds are volatile counters, sanity only.
		t.Logf("rounds after reopen = %d", got)
	}
}

// TestGroupCommitUnackedLoses is the converse: a transaction that logged
// updates but crashed before its commit round flushed is a loser — its
// cached writes vanish and recovery undoes nothing visible.
func TestGroupCommitUnackedLoses(t *testing.T) {
	cfg := gcConfig(0, 1)
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 2, 500)

	x := tm.Begin()
	if err := x.Write64(data, 999); err != nil {
		t.Fatal(err)
	}
	// No commit: crash with the update cached and the record unflushed.
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	tm2 := reopenTM(t, m, cfg)
	if got := tm2.Read64(data); got != 500 {
		t.Fatalf("unacked write visible after crash: %d, want 500", got)
	}
}

// TestTicketBurstSharesOneFlush is the pipelining contract at the manager:
// sixteen transactions published back to back and waited on afterwards
// cost ONE round and ONE fence — the first WaitDurable leads a flush that
// covers every END in the log and the other fifteen tickets find the
// durable mark already past them — and nobody sleeps the gather window on
// the way, neither the burst nor a lone commit (the window is an absurd two
// seconds, so a single sleep would show).
func TestTicketBurstSharesOneFlush(t *testing.T) {
	cfg := gcConfig(2*time.Second, 8)
	cfg.GroupSize = 64 // keep the log's own record-count flush out of the way
	m, a, tm := newTM(t, cfg)
	const burst = 16
	data := dataBlock(a, burst+1, 0)
	start := time.Now()

	x := tm.Begin()
	if err := x.Write64(data+burst*8, 7); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil { // lone, unpipelined
		t.Fatal(err)
	}

	before, rounds := m.Stats(), tm.Stats().Shards[0].GroupCommitRounds
	var tickets [burst]Ticket
	for i := range tickets {
		x := tm.Begin()
		if err := x.Write64(data+uint64(i)*8, 1000+uint64(i)); err != nil {
			t.Fatal(err)
		}
		var err error
		if tickets[i], err = x.Publish(); err != nil {
			t.Fatal(err)
		}
		if i > 0 && tickets[i].Seq != tickets[i-1].Seq+1 {
			t.Fatalf("ticket %d has seq %d after %d: not the shard's END order", i, tickets[i].Seq, tickets[i-1].Seq)
		}
	}
	if n := tm.ActiveTxns(); n != 0 {
		t.Fatalf("%d transactions still active after publish", n)
	}
	for _, tk := range tickets {
		tm.WaitDurable(tk, nil)
	}
	if d := m.Stats().Sub(before); d.Fences != 1 {
		t.Errorf("burst of %d commits paid %d fences, want 1", burst, d.Fences)
	}
	st := tm.Stats().Shards[0]
	if got := st.GroupCommitRounds - rounds; got != 1 {
		t.Errorf("burst of %d commits took %d rounds, want 1", burst, got)
	}
	if st.GroupedCommits < burst {
		t.Errorf("GroupedCommits = %d, want the whole burst of %d", st.GroupedCommits, burst)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("a lone commit plus a pipelined burst took %v: somebody slept the gather window", el)
	}

	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	tm2 := reopenTM(t, m, cfg)
	for i := uint64(0); i < burst; i++ {
		if got := tm2.Read64(data + i*8); got != 1000+i {
			t.Fatalf("slot %d = %d after recovery, want %d", i, got, 1000+i)
		}
	}
}

// TestAbandonedTicketLeaksNothing: a ticket nobody ever waits on (its
// connection died mid-burst) leaves no finished-list entry and no wedge — the
// transaction was finished at publish, the next checkpoint's force covers
// its END and clears it, and a late WaitDurable finds the mark past it
// without opening a round.
func TestAbandonedTicketLeaksNothing(t *testing.T) {
	cfg := gcConfig(0, 8)
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 4, 0)
	var last Ticket
	for i := uint64(0); i < 4; i++ {
		x := tm.Begin()
		if err := x.Write64(data+i*8, 50+i); err != nil {
			t.Fatal(err)
		}
		var err error
		if last, err = x.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	tm.Checkpoint()
	if entries := finishedEntries(tm); entries != 0 {
		t.Fatalf("%d finished-list entries survive the checkpoint", entries)
	}
	rounds := tm.Stats().Shards[0].GroupCommitRounds
	tm.WaitDurable(last, nil)
	if got := tm.Stats().Shards[0].GroupCommitRounds; got != rounds {
		t.Errorf("WaitDurable after the checkpoint's force led %d more rounds", got-rounds)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	tm2 := reopenTM(t, m, cfg)
	for i := uint64(0); i < 4; i++ {
		if got := tm2.Read64(data + i*8); got != 50+i {
			t.Fatalf("slot %d = %d after recovery, want %d", i, got, 50+i)
		}
	}
}

func reopenTM(t *testing.T, m *nvm.Memory, cfg Config) *TM {
	t.Helper()
	a2, err := pmem.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	tm2, _, err := Open(a2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tm2
}
