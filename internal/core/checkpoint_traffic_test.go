package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// trafficCfg is the incremental-checkpoint test configuration: the headline
// NoForce/Batch regime over four shards, small buckets and groups so every
// structural edge (bucket rollover, group flush, stamp, clear) is crossed
// quickly.
func trafficCfg(shards int) Config {
	return Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch,
		BucketSize: 16, GroupSize: 4, LogShards: shards, RootBase: rootBase}
}

// TestCheckpointUnderTraffic proves the incremental checkpoint safe at
// every crash boundary while its image is shaped by live traffic. Each
// round has two acts:
//
//  1. concurrency: committers on every shard race several small-budget
//     paced checkpoints — freezes, stamps and clearing scans interleave
//     with appends, group flushes and the CLRs of every third
//     transaction's rolled-back companion — and a few transactions are
//     left open, then the committers are joined;
//  2. injection: with the image mid-life (dirty cache, part-cleared logs,
//     stale stamps, live losers), the countdown is armed and one more
//     incremental checkpoint runs, crashing before the crashAt-th durable
//     operation — the sweep advances until a checkpoint finally completes
//     uncrashed, so every freeze, stamp, residual flush and clearing store
//     inside the new path is hit in turn.
//
// After the power failure and recovery, every commit acknowledged before
// the cut must read back intact, every transaction must be all-or-none
// (both words of its pair or neither — a cleared-then-resurrected record
// or a user write flushed ahead of its log record would break exactly
// this), losers and rolled-back transactions must be gone — whether a
// checkpoint cleared the rollback's records or recovery replayed them —
// and the recovered store must serve fresh transactions and a clean
// quiescent checkpoint.
func TestCheckpointUnderTraffic(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 9
	}
	const (
		workers = 3
		shards  = 4
	)
	for crashAt := 1; crashAt < 100_000; crashAt += stride {
		m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
		a := pmem.Format(m)
		tm, err := New(a, trafficCfg(shards))
		if err != nil {
			t.Fatal(err)
		}
		regions := make([]uint64, workers)
		for w := range regions {
			regions[w] = dataBlock(a, 2048, uint64(100_000*(w+1)))
		}
		val := func(w, i int) uint64 { return uint64(1000*(w+1) + 2*i) }
		// Every third transaction has a companion that writes a pair of its
		// own, well clear of the committed pairs and the losers, and rolls
		// back.
		const rbSlot = 512
		rbAddr := func(w, i int) uint64 { return regions[w] + uint64((rbSlot+i)*16) }

		// Act 1: committers race unarmed paced checkpoints, so the image
		// the injected checkpoint will walk is mid-life, not pristine.
		const txnsPerW = 24
		acked := make([]atomic.Int64, workers)
		var wg sync.WaitGroup
		stopCkpt := make(chan struct{})
		var bg sync.WaitGroup
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stopCkpt:
					return
				default:
					tm.CheckpointPaced(8)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < txnsPerW; i++ {
					x := tm.Begin()
					addr := regions[w] + uint64(i*16)
					if err := x.Write64(addr, val(w, i)); err != nil {
						t.Error(err)
						return
					}
					if err := x.Write64(addr+8, val(w, i)+1); err != nil {
						t.Error(err)
						return
					}
					if err := x.Commit(); err != nil {
						t.Error(err)
						return
					}
					acked[w].Store(int64(i) + 1)
					if i%3 != 0 {
						continue
					}
					rb := tm.Begin()
					if err := rb.Write64(rbAddr(w, i), 777_000); err != nil {
						t.Error(err)
						return
					}
					if err := rb.Write64(rbAddr(w, i)+8, 777_001); err != nil {
						t.Error(err)
						return
					}
					if err := rb.Rollback(); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(stopCkpt)
		bg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// Losers for the injected checkpoint and recovery to handle: one
		// open transaction per shard, writes pair-shaped like the rest.
		loserAddrs := make([]uint64, shards)
		for j := 0; j < shards; j++ {
			x := tm.Begin()
			loserAddrs[j] = regions[0] + uint64((txnsPerW+8+j)*16)
			if err := x.Write64(loserAddrs[j], 555_000+uint64(j)); err != nil {
				t.Fatal(err)
			}
			if err := x.Write64(loserAddrs[j]+8, 555_001+uint64(j)); err != nil {
				t.Fatal(err)
			}
		}

		// Act 2: crash before the crashAt-th durable op inside one more
		// incremental checkpoint.
		m.SetCrashAfter(crashAt)
		crashed := m.RunToCrash(func() { tm.CheckpointPaced(8) })
		m.SetCrashAfter(0)
		if !crashed {
			// RunToCrash did not revert the device; pull the plug now so
			// the clean-completion case is verified through the same path.
			if err := m.Crash(); err != nil {
				t.Fatal(err)
			}
		}

		a2, err := pmem.Open(m)
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		tm2, _, err := Open(a2, trafficCfg(shards))
		if err != nil {
			t.Fatalf("crashAt=%d: Open: %v", crashAt, err)
		}

		for w := 0; w < workers; w++ {
			ack := int(acked[w].Load())
			for i := 0; i < txnsPerW; i++ {
				addr := regions[w] + uint64(i*16)
				g0, g1 := m.Load64(addr), m.Load64(addr+8)
				init0 := uint64(100_000*(w+1) + 2*i)
				isNew := g0 == val(w, i) && g1 == val(w, i)+1
				isOld := g0 == init0 && g1 == init0+1
				switch {
				case i < ack && !isNew:
					t.Fatalf("crashAt=%d: worker %d txn %d acked but lost (%d,%d)", crashAt, w, i, g0, g1)
				case !isNew && !isOld:
					t.Fatalf("crashAt=%d: worker %d txn %d torn: (%d,%d)", crashAt, w, i, g0, g1)
				}
			}
		}
		for w := 0; w < workers; w++ {
			for i := 0; i < txnsPerW; i += 3 {
				init := uint64(100_000*(w+1) + 2*(rbSlot+i))
				if g0, g1 := m.Load64(rbAddr(w, i)), m.Load64(rbAddr(w, i)+8); g0 != init || g1 != init+1 {
					t.Fatalf("crashAt=%d: worker %d rollback %d resurfaced: (%d,%d)", crashAt, w, i, g0, g1)
				}
			}
		}
		// Losers never commit: recovery must have rolled their pairs back.
		for j, addr := range loserAddrs {
			init := uint64(100_000) + 2*uint64(txnsPerW+8+j)
			if g0, g1 := m.Load64(addr), m.Load64(addr+8); g0 != init || g1 != init+1 {
				t.Fatalf("crashAt=%d: loser %d survived: (%d,%d)", crashAt, j, g0, g1)
			}
		}

		// The recovered manager must serve fresh transactions and a clean
		// quiescent checkpoint (no resurrected records to trip over).
		nt := tm2.Begin()
		if err := nt.Write64(regions[0], 424242); err != nil {
			t.Fatalf("crashAt=%d: post-recovery write: %v", crashAt, err)
		}
		if err := nt.Commit(); err != nil {
			t.Fatalf("crashAt=%d: post-recovery commit: %v", crashAt, err)
		}
		tm2.Checkpoint()
		for i := 0; i < tm2.NumShards(); i++ {
			it := tm2.ShardLog(i).Begin()
			for it.Next() {
				if r := it.Record(); r.Txn() != 0 || r.Type() != rlog.TypeCheckpoint {
					t.Errorf("crashAt=%d: shard %d holds %v after quiescent checkpoint", crashAt, i, r)
				}
			}
			it.Close()
		}
		if t.Failed() {
			t.FailNow()
		}
		if !crashed {
			return // the sweep walked past the checkpoint's last durable op
		}
	}
	t.Fatal("crash sweep did not terminate")
}

// TestGroupCommitCheckpointInterleave races group-commit rounds against the
// paced checkpoint: leaders gather joiners and issue shared flushes on a
// shard while the checkpoint's freezes grab every shard mutex, stamp, and
// clear between rounds. After a power cut, every acknowledged commit must
// survive. This is the leader-round × rolling-stamp interleaving the
// incremental path introduces.
func TestGroupCommitCheckpointInterleave(t *testing.T) {
	cfg := trafficCfg(2)
	cfg.GroupCommit = true
	cfg.GroupCommitWindow = 200 * time.Microsecond
	cfg.GroupCommitMax = 8
	m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	tm, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers  = 4
		txnsPerW = 60
	)
	regions := make([]uint64, workers)
	for w := range regions {
		regions[w] = dataBlock(a, txnsPerW, 0)
	}
	stop := make(chan struct{})
	var ckpts sync.WaitGroup
	ckpts.Add(1)
	go func() {
		defer ckpts.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tm.CheckpointPaced(4)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPerW; i++ {
				x := tm.Begin()
				if err := x.Write64(regions[w]+uint64(i*8), uint64(77_000+i)); err != nil {
					t.Error(err)
					return
				}
				if err := x.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ckpts.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := tm.Stats()
	var rounds int64
	for _, sh := range st.Shards {
		rounds += sh.GroupCommitRounds
	}
	if rounds == 0 {
		t.Fatal("no group-commit rounds ran; the interleaving was not exercised")
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints completed; the interleaving was not exercised")
	}

	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	a2, err := pmem.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(a2, cfg); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < txnsPerW; i++ {
			if got := m.Load64(regions[w] + uint64(i*8)); got != uint64(77_000+i) {
				t.Fatalf("worker %d txn %d: lost acked commit (got %d)", w, i, got)
			}
		}
	}
}

// TestCheckpointPauseBudget is the pause gate: on a workload that dirties
// far more lines than one budget, the longest freeze of the paced
// checkpoint must cost at most a quarter of the old freeze-all pause. Both
// sides are measured on the simulated device's virtual clock over two
// identically built stores, so the gate is deterministic. The paced run
// must still do the full job: same lines made durable, log left holding
// only its stamps.
func TestCheckpointPauseBudget(t *testing.T) {
	const (
		lines  = 2048
		budget = 128
	)
	build := func() (*nvm.Memory, *TM, uint64) {
		m := nvm.New(nvm.Config{Size: 32 << 20, TrackPersistence: true})
		a := pmem.Format(m)
		tm, err := New(a, trafficCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		// One committed transaction per cache line: a big dirty set, the
		// freeze-all checkpoint's worst case.
		region := a.Alloc(lines * 64)
		for i := 0; i < lines; i++ {
			x := tm.Begin()
			if err := x.Write64(region+uint64(i*64), uint64(i)+1); err != nil {
				t.Fatal(err)
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return m, tm, region
	}

	mA, tmA, _ := build()
	if mA.DirtyLineCount() < lines {
		t.Fatalf("workload dirtied %d lines, want >= %d", mA.DirtyLineCount(), lines)
	}
	all := tmA.CheckpointPaced(-1)
	if all.Chunks != 1 {
		t.Fatalf("freeze-all took %d freezes, want 1", all.Chunks)
	}

	mB, tmB, region := build()
	paced := tmB.CheckpointPaced(budget)
	if paced.Chunks < lines/budget {
		t.Fatalf("paced checkpoint took %d freezes for %d dirty lines at budget %d", paced.Chunks, lines, budget)
	}
	if paced.MaxPauseSimNs*4 > all.MaxPauseSimNs {
		t.Fatalf("paced max pause %dns > 1/4 of freeze-all pause %dns (ratio %.2f)",
			paced.MaxPauseSimNs, all.MaxPauseSimNs,
			float64(paced.MaxPauseSimNs)/float64(all.MaxPauseSimNs))
	}
	if paced.LinesFlushed < lines {
		t.Fatalf("paced checkpoint flushed %d lines, want >= %d", paced.LinesFlushed, lines)
	}
	if got := mB.DirtyLineCount(); got != 0 {
		t.Fatalf("%d lines still dirty after paced checkpoint", got)
	}
	if tmB.LastCheckpoint() != paced {
		t.Fatal("LastCheckpoint does not report the paced run")
	}

	// Both protocols clear the same records: only the stamps remain, and
	// the flushed data survives a crash identically.
	for i := 0; i < tmB.NumShards(); i++ {
		it := tmB.ShardLog(i).Begin()
		for it.Next() {
			if r := it.Record(); r.Txn() != 0 || r.Type() != rlog.TypeCheckpoint {
				t.Errorf("shard %d holds %v after paced checkpoint", i, r)
			}
		}
		it.Close()
	}
	if err := mB.Crash(); err != nil {
		t.Fatal(err)
	}
	a2, err := pmem.Open(mB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(a2, trafficCfg(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lines; i++ {
		if got := mB.Load64(region + uint64(i*64)); got != uint64(i)+1 {
			t.Fatalf("line %d: checkpointed value lost (got %d)", i, got)
		}
	}
}
