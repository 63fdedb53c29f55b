package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// shardConfigs are the configurations the sharded tests sweep: the force
// policy (durable data, commit-time clearing), the headline no-force
// Batch configuration (cached data, redo recovery), and force over Batch
// (per-shard pending-write buffers holding deferred durable stores).
func shardConfigs(shards int) []Config {
	return []Config{
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, GroupSize: 4, LogShards: shards, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 16, GroupSize: 4, LogShards: shards, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 16, GroupSize: 4, LogShards: shards, RootBase: rootBase},
	}
}

func TestShardSlotLayoutAndValidate(t *testing.T) {
	if got := (Config{LogShards: 1}).Slots(); got != SlotsPerTM {
		t.Fatalf("Slots(1 shard) = %d, want %d", got, SlotsPerTM)
	}
	if got := (Config{LogShards: 8}).Slots(); got != 9 {
		t.Fatalf("Slots(8 shards) = %d, want 9", got)
	}
	bad := Config{Layers: TwoLayer, LogKind: rlog.Optimized, LogShards: 2}
	if err := bad.validate(); err == nil {
		t.Fatal("TwoLayer with 2 shards accepted")
	}
	if err := (Config{LogKind: rlog.Simple, LogShards: maxLogShards + 1}).validate(); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	// Shard counts must be part of the durable fingerprint: reopening with
	// a different count must fail, not corrupt.
	one := Config{LogKind: rlog.Simple, LogShards: 1}.withDefaults()
	four := Config{LogKind: rlog.Simple, LogShards: 4}.withDefaults()
	if one.fingerprint() == four.fingerprint() {
		t.Fatal("shard count not fingerprinted")
	}
	m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	cfg := shardConfigs(4)[0]
	if _, err := New(a, cfg); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.LogShards = 2
	if _, _, err := Open(a, cfg2); err == nil {
		t.Fatal("Open with mismatched shard count succeeded")
	}
}

// TestShardedCrashRecoveryStress runs concurrent transactions across the
// shards, leaves one transaction per shard uncommitted, pulls the plug, and
// verifies per shard that committed work survived and uncommitted work was
// rolled back, with the analysis pass having merged every shard's records.
func TestShardedCrashRecoveryStress(t *testing.T) {
	const (
		workers     = 4
		txnsPerW    = 25
		wordsPerTxn = 4
	)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, cfg := range shardConfigs(shards) {
			t.Run(fmt.Sprintf("%v", cfg), func(t *testing.T) {
				m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
				a := pmem.Format(m)
				tm, err := New(a, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Concurrent committed phase: each worker owns a region and
				// commits txnsPerW transactions of wordsPerTxn words.
				regions := make([]uint64, workers)
				for w := range regions {
					regions[w] = dataBlock(a, txnsPerW*wordsPerTxn, uint64(1000*(w+1)))
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < txnsPerW; i++ {
							tx := tm.Begin()
							for k := 0; k < wordsPerTxn; k++ {
								addr := regions[w] + uint64((i*wordsPerTxn+k)*8)
								if err := tx.Write64(addr, uint64(5000*(w+1)+i)); err != nil {
									t.Error(err)
									return
								}
							}
							if err := tx.Commit(); err != nil {
								t.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}

				// Uncommitted phase: one loser per shard (sequential ids
				// cover every shard), each with enough records that at
				// least one Batch group is durable.
				loserRegions := map[uint64]uint64{}
				shardsHit := map[int]bool{}
				for j := 0; j < shards; j++ {
					tx := tm.Begin()
					shardsHit[tm.ShardOf(tx.ID())] = true
					region := dataBlock(a, 2*cfg.GroupSize, uint64(100*(j+1)))
					loserRegions[tx.ID()] = region
					for k := 0; k < 2*cfg.GroupSize; k++ {
						if err := tx.Write64(region+uint64(k*8), 777); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(shardsHit) != shards {
					t.Fatalf("uncommitted txns hit %d shards, want %d", len(shardsHit), shards)
				}
				preLSN := tm.LSN()

				// Power failure, then recovery.
				if err := m.Crash(); err != nil {
					t.Fatal(err)
				}
				a2, err := pmem.Open(m)
				if err != nil {
					t.Fatal(err)
				}
				tm2, rs, err := Open(a2, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// Committed transactions survive (redone under NoForce,
				// already durable under Force).
				for w := 0; w < workers; w++ {
					for i := 0; i < txnsPerW; i++ {
						for k := 0; k < wordsPerTxn; k++ {
							addr := regions[w] + uint64((i*wordsPerTxn+k)*8)
							if got := m.Load64(addr); got != uint64(5000*(w+1)+i) {
								t.Fatalf("worker %d txn %d word %d: lost committed value (got %d)", w, i, k, got)
							}
						}
					}
				}
				// Uncommitted transactions roll back on every shard.
				j := 0
				for _, region := range loserRegions {
					for k := 0; k < 2*cfg.GroupSize; k++ {
						if got := m.Load64(region + uint64(k*8)); got == 777 {
							t.Fatalf("loser region %d word %d kept uncommitted value", j, k)
						}
					}
					j++
				}

				// Analysis merged all shards.
				if len(rs.ShardRecords) != shards {
					t.Fatalf("ShardRecords has %d entries, want %d", len(rs.ShardRecords), shards)
				}
				sum := 0
				for _, n := range rs.ShardRecords {
					sum += n
				}
				if sum != rs.RecordsScanned {
					t.Fatalf("per-shard records sum %d != scanned %d", sum, rs.RecordsScanned)
				}
				if rs.LosersAborted != shards {
					t.Fatalf("LosersAborted = %d, want %d", rs.LosersAborted, shards)
				}
				wantWinners := 0
				if cfg.Policy == NoForce {
					wantWinners = workers * txnsPerW // force-policy commits clear their records
				}
				if rs.Winners != wantWinners {
					t.Fatalf("Winners = %d, want %d", rs.Winners, wantWinners)
				}

				// The global LSN counter resumed above every surviving
				// record, and the manager is fully usable.
				if tm2.LSN() < rs.MaxLSN {
					t.Fatalf("LSN counter %d below recovered max %d", tm2.LSN(), rs.MaxLSN)
				}
				if rs.MaxLSN > preLSN {
					t.Fatalf("recovered MaxLSN %d exceeds pre-crash counter %d", rs.MaxLSN, preLSN)
				}
				nt := tm2.Begin()
				if err := nt.Write64(regions[0], 42); err != nil {
					t.Fatal(err)
				}
				if err := nt.Commit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShardedLSNMergeOrder commits a chain of transactions on different
// shards that all write the same word. Redo must replay them in global LSN
// order — any per-shard concatenation would resurrect a stale value.
func TestShardedLSNMergeOrder(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized,
				BucketSize: 16, LogShards: shards, RootBase: rootBase}
			m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			tm, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			x := dataBlock(a, 1, 5)
			n := 2*shards + 1 // wrap every shard at least twice
			for i := 1; i <= n; i++ {
				tx := tm.Begin()
				if err := tx.Write64(x, uint64(100+i)); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Crash(); err != nil {
				t.Fatal(err)
			}
			a2, err := pmem.Open(m)
			if err != nil {
				t.Fatal(err)
			}
			_, rs, err := Open(a2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Winners != n {
				t.Fatalf("Winners = %d, want %d", rs.Winners, n)
			}
			if got := m.Load64(x); got != uint64(100+n) {
				t.Fatalf("redo out of LSN order: word = %d, want %d", got, 100+n)
			}
		})
	}
}

// TestShardedCrashMatrix is the sharded version of the end-to-end crash
// matrix: three transactions on three different shards (committed, rolled
// back, left running), crashed before every durable operation in turn.
func TestShardedCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash matrix")
	}
	for _, cfg := range shardConfigs(4) {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			for crashAt := 1; ; crashAt++ {
				m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
				a := pmem.Format(m)
				tm, err := New(a, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d1 := dataBlock(a, 4, 10)
				d2 := dataBlock(a, 4, 20)
				d3 := dataBlock(a, 4, 30)

				committed1 := false
				m.SetCrashAfter(crashAt)
				crashed := m.RunToCrash(func() {
					t1 := tm.Begin()
					t2 := tm.Begin()
					t3 := tm.Begin()
					if tm.ShardOf(t1.ID()) == tm.ShardOf(t2.ID()) || tm.ShardOf(t2.ID()) == tm.ShardOf(t3.ID()) {
						t.Error("test transactions share a shard")
					}
					for i := uint64(0); i < 4; i++ {
						t1.Write64(d1+i*8, 110+i)
						t2.Write64(d2+i*8, 120+i)
						t3.Write64(d3+i*8, 130+i)
					}
					t1.Commit()
					committed1 = true
					t2.Rollback()
					// t3 left running.
				})
				m.SetCrashAfter(0)

				a2, err := pmem.Open(m)
				if err != nil {
					t.Fatalf("crashAt=%d: %v", crashAt, err)
				}
				tm2, _, err := Open(a2, cfg)
				if err != nil {
					t.Fatalf("crashAt=%d: Open: %v", crashAt, err)
				}

				check := func(name string, base uint64, oldBase, newBase uint64, mustBeNew, mustBeOld bool) {
					t.Helper()
					first := m.Load64(base)
					isNew := first == newBase
					isOld := first == oldBase
					if !isNew && !isOld {
						t.Fatalf("crashAt=%d: %s word0 = %d: neither old nor new", crashAt, name, first)
					}
					if mustBeNew && !isNew {
						t.Fatalf("crashAt=%d: %s lost committed data", crashAt, name)
					}
					if mustBeOld && !isOld {
						t.Fatalf("crashAt=%d: %s kept aborted data", crashAt, name)
					}
					want := oldBase
					if isNew {
						want = newBase
					}
					for i := uint64(0); i < 4; i++ {
						if got := m.Load64(base + i*8); got != want+i {
							t.Fatalf("crashAt=%d: %s torn: word %d = %d, want %d", crashAt, name, i, got, want+i)
						}
					}
				}
				check("t1", d1, 10, 110, committed1, false)
				check("t2", d2, 20, 120, false, crashed)
				check("t3", d3, 30, 130, false, true)

				nt := tm2.Begin()
				if err := nt.Write64(d1, 999); err != nil {
					t.Fatalf("crashAt=%d: post-recovery write: %v", crashAt, err)
				}
				if err := nt.Commit(); err != nil {
					t.Fatalf("crashAt=%d: post-recovery commit: %v", crashAt, err)
				}
				if !crashed {
					return
				}
			}
		})
	}
}

// TestShardedCheckpointUnderLoad races repeated checkpoints against
// committing workers on a sharded no-force store — the lock-all-shards
// freeze, the finished-transaction snapshot, and the unlocked per-shard
// clearing scans all run concurrently with appends. It then pulls the
// plug mid-traffic and verifies recovery still yields a consistent image.
func TestShardedCheckpointUnderLoad(t *testing.T) {
	const (
		workers  = 4
		txnsPerW = 40
	)
	for _, shards := range []int{1, 4} {
		cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch,
			BucketSize: 16, GroupSize: 4, LogShards: shards, RootBase: rootBase}
		t.Run(fmt.Sprintf("%v", cfg), func(t *testing.T) {
			m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			tm, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
						tm.Checkpoint()
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < txnsPerW; i++ {
						tx := tm.Begin()
						if err := tx.Write64(regions[w]+uint64(i*8), uint64(10_000+i)); err != nil {
							t.Error(err)
							return
						}
						if err := tx.Commit(); err != nil {
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

			// One more checkpoint with no traffic must clear every shard
			// of transaction records (each shard keeps its own current
			// CHECKPOINT marker until the next checkpoint supersedes it).
			tm.Checkpoint()
			for i := 0; i < tm.NumShards(); i++ {
				it := tm.ShardLog(i).Begin()
				for it.Next() {
					if r := it.Record(); r.Txn() != 0 || r.Type() != rlog.TypeCheckpoint {
						t.Errorf("shard %d still holds %v after quiescent checkpoint", i, r)
					}
				}
				it.Close()
			}
			if t.Failed() {
				t.FailNow()
			}

			// Crash and recover: all committed work must survive (the
			// checkpoints flushed some of it; redo replays the rest).
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
					if got := m.Load64(regions[w] + uint64(i*8)); got != uint64(10_000+i) {
						t.Fatalf("worker %d txn %d: lost committed value (got %d)", w, i, got)
					}
				}
			}
		})
	}
}

// TestShardStatsBalance checks the per-shard counters: sequential ids
// round-robin over the shards, so appends and commits are balanced and
// Stats.Records equals the summed appends.
func TestShardStatsBalance(t *testing.T) {
	cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch,
		BucketSize: 16, GroupSize: 4, LogShards: 4, RootBase: rootBase}
	_, a, tm := newTM(t, cfg)
	d := dataBlock(a, 64, 0)
	const txns = 32
	for i := 0; i < txns; i++ {
		tx := tm.Begin()
		if err := tx.Write64(d+uint64(i*8), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := tm.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Shards has %d entries, want 4", len(st.Shards))
	}
	var sumAppends, sumCommits int64
	for i, sh := range st.Shards {
		if sh.Commits != txns/4 {
			t.Fatalf("shard %d commits = %d, want %d", i, sh.Commits, txns/4)
		}
		if sh.Appends != sh.Appends/sh.Commits*sh.Commits {
			t.Fatalf("shard %d appends %d not balanced", i, sh.Appends)
		}
		if sh.UncontendedCommits != sh.Commits {
			t.Fatalf("shard %d: %d of %d commits contended in a single-goroutine run",
				sh.Commits-sh.UncontendedCommits, sh.Commits, i)
		}
		if sh.Flushes == 0 {
			t.Fatalf("shard %d recorded no Batch group flushes", i)
		}
		sumAppends += sh.Appends
		sumCommits += sh.Commits
	}
	if st.Records != sumAppends {
		t.Fatalf("Records = %d, want summed appends %d", st.Records, sumAppends)
	}
	if sumCommits != st.Committed {
		t.Fatalf("summed commits %d != Committed %d", sumCommits, st.Committed)
	}
}
