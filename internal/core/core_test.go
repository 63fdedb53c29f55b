package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

const rootBase = 8

// testConfigs enumerates every supported REWIND configuration (§2's design
// space plus the three log kinds).
func testConfigs() []Config {
	return []Config{
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Simple, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Simple, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: NoForce, Layers: TwoLayer, LogKind: rlog.Optimized, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: Force, Layers: TwoLayer, LogKind: rlog.Optimized, BucketSize: 16, GroupSize: 4, RootBase: rootBase},
	}
}

func newTM(t testing.TB, cfg Config) (*nvm.Memory, *pmem.Allocator, *TM) {
	t.Helper()
	m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	tm, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, tm
}

// dataBlock allocates a durable table of n words initialized to base+i.
func dataBlock(a *pmem.Allocator, n int, base uint64) uint64 {
	addr := a.Alloc(n * 8)
	for i := 0; i < n; i++ {
		a.Mem().StoreNT64(addr+uint64(i)*8, base+uint64(i))
	}
	a.Mem().Fence()
	return addr
}

func TestConfigStringAndValidate(t *testing.T) {
	cfg := Config{Policy: Force, Layers: TwoLayer, LogKind: rlog.Optimized}
	if got := cfg.String(); got != "2L-FP/Optimized" {
		t.Fatalf("String = %q", got)
	}
	bad := Config{Layers: TwoLayer, LogKind: rlog.Batch}
	if err := bad.validate(); err == nil {
		t.Fatal("TwoLayer+Batch accepted")
	}
	if err := (Config{RootBase: pmem.NumRoots}).validate(); err == nil {
		t.Fatal("out-of-range root base accepted")
	}
}

func TestCommitMakesUpdatesDurable(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			m, a, tm := newTM(t, cfg)
			data := dataBlock(a, 8, 100)
			a.SetRoot(30, data)

			tx := tm.Begin()
			for i := uint64(0); i < 8; i++ {
				if err := tx.Write64(data+i*8, 200+i); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
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
			if !rs.CrashDetected {
				t.Error("crash not detected")
			}
			d := a2.Root(30)
			for i := uint64(0); i < 8; i++ {
				if got := tm2.Read64(d + i*8); got != 200+i {
					t.Fatalf("word %d = %d, want %d", i, got, 200+i)
				}
			}
		})
	}
}

func TestUncommittedUpdatesRolledBackOnRecovery(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			m, a, tm := newTM(t, cfg)
			data := dataBlock(a, 8, 100)
			a.SetRoot(30, data)

			tx := tm.Begin()
			for i := uint64(0); i < 8; i++ {
				if err := tx.Write64(data+i*8, 200+i); err != nil {
					t.Fatal(err)
				}
			}
			// No commit: crash.
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
			if rs.LosersAborted != 1 {
				t.Errorf("LosersAborted = %d, want 1", rs.LosersAborted)
			}
			d := a2.Root(30)
			for i := uint64(0); i < 8; i++ {
				if got := m.Load64(d + i*8); got != 100+i {
					t.Fatalf("word %d = %d, want restored %d", i, got, 100+i)
				}
			}
		})
	}
}

func TestExplicitRollbackRestoresOldValues(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			_, a, tm := newTM(t, cfg)
			data := dataBlock(a, 4, 10)
			tx := tm.Begin()
			for i := uint64(0); i < 4; i++ {
				if err := tx.Write64(data+i*8, 99); err != nil {
					t.Fatal(err)
				}
			}
			// Overwrite one slot twice: undo must restore the original.
			if err := tx.Write64(data, 77); err != nil {
				t.Fatal(err)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 4; i++ {
				if got := tm.Read64(data + i*8); got != 10+i {
					t.Fatalf("word %d = %d, want %d", i, got, 10+i)
				}
			}
			// The transaction is finished: further use must fail.
			if err := tx.Write64(data, 1); err == nil {
				t.Fatal("write after rollback succeeded")
			}
		})
	}
}

func TestInterleavedCommitAndRollback(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			_, a, tm := newTM(t, cfg)
			data := dataBlock(a, 2, 0)
			t1 := tm.Begin()
			t2 := tm.Begin()
			if err := t1.Write64(data, 111); err != nil {
				t.Fatal(err)
			}
			if err := t2.Write64(data+8, 222); err != nil {
				t.Fatal(err)
			}
			if err := t2.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := tm.Read64(data); got != 111 {
				t.Fatalf("committed slot = %d", got)
			}
			if got := tm.Read64(data + 8); got != 1 {
				t.Fatalf("rolled-back slot = %d, want 1", got)
			}
		})
	}
}

func TestTxnErrors(t *testing.T) {
	_, _, tm := newTM(t, testConfigs()[1])
	tx := tm.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit succeeded")
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("rollback after commit succeeded")
	}
}

func TestLogExplicitWAL(t *testing.T) {
	// The paper's explicit tm->log API (Listing 2): caller performs the
	// store itself.
	cfg := Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 1, 5)
	tx := tm.Begin()
	if err := tx.Log(data, 5, 50); err != nil {
		t.Fatal(err)
	}
	m.StoreNT64(data, 50)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := m.Load64(data); got != 50 {
		t.Fatal("value lost")
	}
	// Under Batch the explicit API must be refused.
	bcfg := Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 16, RootBase: 16}
	btm, err := New(a, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	bt := btm.Begin()
	if err := bt.Log(data, 50, 60); err == nil {
		t.Fatal("explicit Log allowed under Batch")
	}
}

func TestForceClearsLogAtCommit(t *testing.T) {
	cfg := Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	_, a, tm := newTM(t, cfg)
	data := dataBlock(a, 4, 0)
	tx := tm.Begin()
	for i := uint64(0); i < 4; i++ {
		tx.Write64(data+i*8, i)
	}
	if tm.RawLog().Len() == 0 {
		t.Fatal("log empty before commit")
	}
	tx.Commit()
	if got := tm.RawLog().Len(); got != 0 {
		t.Fatalf("force policy left %d records after commit", got)
	}
}

func TestNoForceKeepsLogUntilCheckpoint(t *testing.T) {
	cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 4, 0)
	tx := tm.Begin()
	for i := uint64(0); i < 4; i++ {
		tx.Write64(data+i*8, 50+i)
	}
	tx.Commit()
	if got := tm.RawLog().Len(); got != 5 { // 4 updates + END
		t.Fatalf("log holds %d records, want 5", got)
	}
	tm.Checkpoint()
	// Only the CHECKPOINT marker survives.
	if got := tm.RawLog().Len(); got != 1 {
		t.Fatalf("log holds %d records after checkpoint, want 1", got)
	}
	// The checkpoint made the cached user writes durable.
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if got := m.Load64(data + i*8); got != 50+i {
			t.Fatalf("word %d = %d after crash, want %d", i, got, 50+i)
		}
	}
}

func TestTwoLayerCheckpointClearsTree(t *testing.T) {
	cfg := Config{Policy: NoForce, Layers: TwoLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	_, a, tm := newTM(t, cfg)
	data := dataBlock(a, 4, 0)
	for k := 0; k < 3; k++ {
		tx := tm.Begin()
		tx.Write64(data, uint64(k))
		tx.Commit()
	}
	if got := tm.Tree().Size(); got != 3 {
		t.Fatalf("tree holds %d txns, want 3", got)
	}
	tm.Checkpoint()
	if got := tm.Tree().Size(); got != 0 {
		t.Fatalf("tree holds %d txns after checkpoint, want 0", got)
	}
}

func TestDeleteFreedOnCommitKeptOnRollback(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			_, a, tm := newTM(t, cfg)
			blockA := a.Alloc(64)
			blockB := a.Alloc(64)

			tx := tm.Begin()
			if err := tx.Free(blockA); err != nil {
				t.Fatal(err)
			}
			tx.Commit()

			tx2 := tm.Begin()
			if err := tx2.Free(blockB); err != nil {
				t.Fatal(err)
			}
			tx2.Rollback()

			if cfg.Policy == NoForce {
				tm.Checkpoint() // NoForce defers the free to the checkpoint
			}
			if !a.IsFree(blockA) {
				t.Error("committed DELETE did not free the block")
			}
			if a.IsFree(blockB) {
				t.Error("rolled-back DELETE freed the block")
			}
		})
	}
}

func TestDeleteAppliedByRecovery(t *testing.T) {
	// A crash after commit but before clearing: the DELETE must still be
	// applied by recovery (§4.3).
	cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	m, a, tm := newTM(t, cfg)
	block := a.Alloc(64)
	tx := tm.Begin()
	tx.Free(block)
	tx.Commit()
	// Crash before any checkpoint.
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
	if !a2.IsFree(block) {
		t.Fatal("recovery did not apply committed DELETE")
	}
}

func TestCleanCloseReopen(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			m, a, tm := newTM(t, cfg)
			data := dataBlock(a, 2, 0)
			tx := tm.Begin()
			tx.Write64(data, 42)
			tx.Commit()
			tm.Close()
			if err := m.Crash(); err != nil { // power loss after clean close
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
			if cfg.Policy == NoForce && rs.CrashDetected {
				t.Error("clean close reported as crash")
			}
			if got := tm2.Read64(data); got != 42 {
				t.Fatalf("value after clean reopen = %d", got)
			}
		})
	}
}

func TestOpenRejectsMismatchedConfig(t *testing.T) {
	cfg := testConfigs()[1]
	m, a, _ := newTM(t, cfg)
	_ = m
	other := cfg
	other.Policy = Force
	if _, _, err := Open(a, other); err == nil {
		t.Fatal("policy mismatch accepted")
	}
	missing := cfg
	missing.RootBase = 24
	if _, _, err := Open(a, missing); err == nil {
		t.Fatal("missing manager accepted")
	}
}

func TestCountersReseededAfterRecovery(t *testing.T) {
	cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 1, 0)
	var lastTid uint64
	for i := 0; i < 5; i++ {
		x := tm.Begin()
		lastTid = x.ID()
		x.Write64(data, uint64(i))
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	a2, _ := pmem.Open(m)
	tm2, _, err := Open(a2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm2.Begin().ID(); got <= lastTid {
		t.Fatalf("transaction ID %d reused (last was %d)", got, lastTid)
	}
}

// TestCrashAtEveryPointEndToEnd is the system-level atomicity check: a
// three-transaction workload (commit / rollback / in-flight) is crashed at
// every durable-operation boundary; after recovery each transaction must be
// all-or-nothing, a transaction whose Commit returned must be all-new, and
// the rolled-back and in-flight transactions must be all-old.
func TestCrashAtEveryPointEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash matrix")
	}
	for _, cfg := range testConfigs() {
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
				// Three 4-word regions, old values 10+i, 20+i, 30+i.
				d1 := dataBlock(a, 4, 10)
				d2 := dataBlock(a, 4, 20)
				d3 := dataBlock(a, 4, 30)

				committed1 := false
				m.SetCrashAfter(crashAt)
				crashed := m.RunToCrash(func() {
					t1 := tm.Begin()
					t2 := tm.Begin()
					t3 := tm.Begin()
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
				check("t2", d2, 20, 120, false, crashed) // if no crash, rollback ran: all-old
				check("t3", d3, 30, 130, false, true)    // never committed

				// The recovered manager must be fully usable.
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

// TestDoubleCrashDuringRecovery crashes recovery itself at several points
// and verifies convergence.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			tm, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := dataBlock(a, 4, 10)
			// Crash mid-transaction.
			m.SetCrashAfter(25)
			m.RunToCrash(func() {
				tx := tm.Begin()
				for i := uint64(0); i < 4; i++ {
					tx.Write64(data+i*8, 110+i)
				}
				tx.Commit()
			})
			// Crash during recovery at increasing depths, then finish.
			for depth := 1; depth <= 40; depth += 7 {
				m.SetCrashAfter(depth)
				m.RunToCrash(func() {
					a2, err := pmem.Open(m)
					if err != nil {
						t.Fatal(err)
					}
					Open(a2, cfg) //nolint:errcheck // crash expected mid-way
				})
			}
			m.SetCrashAfter(0)
			a3, err := pmem.Open(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(a3, cfg); err != nil {
				t.Fatal(err)
			}
			first := m.Load64(data)
			want := uint64(10)
			if first == 110 {
				want = 110
			}
			for i := uint64(0); i < 4; i++ {
				if got := m.Load64(data + i*8); got != want+i {
					t.Fatalf("torn after repeated recovery crashes: word %d = %d", i, got)
				}
			}
		})
	}
}

func TestConcurrentTransactions(t *testing.T) {
	for _, cfg := range testConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			m := nvm.New(nvm.Config{Size: 64 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			tm, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 4
			const txnsPerG = 25
			// Each goroutine owns a distinct region.
			regions := make([]uint64, goroutines)
			for g := range regions {
				regions[g] = dataBlock(a, 8, 0)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < txnsPerG; k++ {
						tx := tm.Begin()
						for i := uint64(0); i < 8; i++ {
							if err := tx.Write64(regions[g]+i*8, uint64(k*100+int(i))); err != nil {
								t.Error(err)
								return
							}
						}
						if k%5 == 4 {
							tx.Rollback()
						} else {
							tx.Commit()
						}
					}
				}(g)
			}
			wg.Wait()
			// Last committed value per region: k = txnsPerG-2 is committed
			// when (txnsPerG-1)%5==4, i.e. the final iteration rolled back.
			lastCommitted := uint64((txnsPerG - 2) * 100)
			for g := 0; g < goroutines; g++ {
				if got := tm.Read64(regions[g]); got != lastCommitted {
					t.Fatalf("g=%d: word0 = %d, want %d", g, got, lastCommitted)
				}
			}
			st := tm.Stats()
			if st.Begun != goroutines*txnsPerG {
				t.Fatalf("Begun = %d", st.Begun)
			}
			if st.Committed+st.RolledBack != st.Begun {
				t.Fatalf("commit+rollback = %d+%d != %d", st.Committed, st.RolledBack, st.Begun)
			}
		})
	}
}

func TestWriteBytesRoundTrip(t *testing.T) {
	cfg := Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	_, a, tm := newTM(t, cfg)
	data := a.Alloc(64)
	payload := []byte("recoverable byte payload!")
	tx := tm.Begin()
	if err := tx.WriteBytes(data, payload); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if got := tm.ReadBytes(data, len(payload)); string(got) != string(payload) {
		t.Fatalf("ReadBytes = %q", got)
	}
	// And rollback restores the previous bytes.
	tx2 := tm.Begin()
	tx2.WriteBytes(data, []byte("XXXXXXXXXXXXXXXXXXXXXXXXX"))
	tx2.Rollback()
	if got := tm.ReadBytes(data, len(payload)); string(got) != string(payload) {
		t.Fatalf("after rollback = %q", got)
	}
}

func TestRollbackDuringBatchGroup(t *testing.T) {
	// Rollback while user writes are still deferred in a pending group.
	cfg := Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 64, GroupSize: 32, RootBase: rootBase}
	_, a, tm := newTM(t, cfg)
	data := dataBlock(a, 4, 10)
	tx := tm.Begin()
	for i := uint64(0); i < 4; i++ {
		tx.Write64(data+i*8, 110+i) // group of 32 never fills
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if got := tm.Read64(data + i*8); got != 10+i {
			t.Fatalf("word %d = %d, want %d", i, got, 10+i)
		}
	}
}

func TestRecoveryStatsShape(t *testing.T) {
	cfg := Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 16, RootBase: rootBase}
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 2, 0)
	c := tm.Begin()
	c.Write64(data, 1)
	c.Commit()
	l := tm.Begin()
	l.Write64(data+8, 2)
	// crash with one winner, one loser
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	a2, _ := pmem.Open(m)
	_, rs, err := Open(a2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Winners != 1 || rs.LosersAborted != 1 {
		t.Fatalf("winners=%d losers=%d, want 1/1", rs.Winners, rs.LosersAborted)
	}
	if rs.Redone == 0 {
		t.Fatal("no redo under NoForce")
	}
	if rs.Undone != 1 {
		t.Fatalf("Undone = %d, want 1", rs.Undone)
	}
}

func TestManyTransactionsAcrossBuckets(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			m, a, tm := newTM(t, cfg)
			data := dataBlock(a, 64, 0)
			for k := 0; k < 40; k++ { // bucket size 16: many buckets
				tx := tm.Begin()
				for i := uint64(0); i < 4; i++ {
					tx.Write64(data+(uint64(k%16)*4+i)*8, uint64(k+1)*1000+i)
				}
				tx.Commit()
			}
			if err := m.Crash(); err != nil {
				t.Fatal(err)
			}
			a2, _ := pmem.Open(m)
			if _, _, err := Open(a2, cfg); err != nil {
				t.Fatal(err)
			}
			// Slot k%16 holds the values of its last writer: k = 32+slot for
			// slots 0..7, k = 16+slot for slots 8..15 (k ranges 0..39).
			for slot := 0; slot < 16; slot++ {
				lastK := 32 + slot
				if slot >= 8 {
					lastK = 16 + slot
				}
				for i := uint64(0); i < 4; i++ {
					addr := data + (uint64(slot)*4+i)*8
					if got := m.Load64(addr); got != uint64(lastK+1)*1000+i {
						t.Fatalf("slot %d word %d = %d, want %d", slot, i, got, uint64(lastK+1)*1000+i)
					}
				}
			}
		})
	}
}

func TestStressManySmallTxns(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	for _, cfg := range []Config{
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 1000, GroupSize: 8, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, BucketSize: 1000, RootBase: rootBase},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			m := nvm.New(nvm.Config{Size: 256 << 20, TrackPersistence: false})
			a := pmem.Format(m)
			tm, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := dataBlock(a, 128, 0)
			for k := 0; k < 5000; k++ {
				tx := tm.Begin()
				for i := uint64(0); i < 4; i++ {
					tx.Write64(data+(uint64(k)%128)*8, uint64(k)<<8|i)
				}
				tx.Commit()
				if cfg.Policy == NoForce && k%500 == 499 {
					tm.Checkpoint()
				}
			}
			if tm.ActiveTxns() != 0 {
				t.Fatalf("active txns = %d", tm.ActiveTxns())
			}
		})
	}
}

func ExampleTM() {
	m := nvm.New(nvm.Config{Size: 1 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	tm, _ := New(a, Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, RootBase: 8})
	slot := a.Alloc(8)
	tx := tm.Begin()
	tx.Write64(slot, 42)
	tx.Commit()
	fmt.Println(tm.Read64(slot))
	// Output: 42
}
