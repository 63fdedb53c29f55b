package core

import (
	"sync"
	"testing"

	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// TestTxnAllocs pins what a transaction costs the Go heap in the
// configuration the kv service runs (OneLayer/Batch/NoForce): no table
// entry, no map slot, and no handle either once handles go back to the
// manager (Release, what rewind.Store.PublishOn does) — one object, the
// handle, only for a caller that keeps it. Group commit adds three, as a
// lone commit leads its own round (the round and its two channels).
func TestTxnAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		groupCommit bool
		release     bool
		min, max    float64
	}{
		{"kept handle, per-commit flush", false, false, 1, 1},
		{"released handle, per-commit flush", false, true, 0, 0},
		{"released handle, group commit", true, true, 3, 3},
	} {
		cfg := trafficCfg(1)
		cfg.GroupCommit = tc.groupCommit
		_, a, tm := newTM(t, cfg)
		data := dataBlock(a, 2, 0)
		payload := make([]byte, 16)
		got := testing.AllocsPerRun(200, func() {
			x := tm.Begin()
			if err := x.WriteBytes(data, payload); err != nil {
				t.Fatal(err)
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			if tc.release {
				x.Release()
			}
		})
		if got < tc.min || got > tc.max {
			t.Errorf("%s: %v allocs per transaction, want %v..%v", tc.name, got, tc.min, tc.max)
		}
	}
}

// TestReleaseRecyclesOnlyFinished checks Release's guard: a running handle
// is left alone (and still commits), and a finished one comes back from the
// next Begin reset — new id, running, no hook, no span.
func TestReleaseRecyclesOnlyFinished(t *testing.T) {
	_, a, tm := newTM(t, trafficCfg(1))
	data := dataBlock(a, 2, 0)
	x := tm.Begin()
	x.Release()
	if err := x.Write64(data, 1); err != nil {
		t.Fatalf("a running handle was recycled by Release: %v", err)
	}
	x.OnPublish(publishFunc(func(*Txn) {}))
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	id := x.ID()
	x.Release()
	y := tm.Begin()
	if y.ID() == id || y.Done() || y.onPublish != nil || y.span != nil {
		t.Fatalf("reused handle not reset: id %d (was %d), done %v, hook %v, span %v",
			y.ID(), id, y.Done(), y.onPublish, y.span)
	}
	if err := y.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// publishFunc adapts a function to Publisher.
type publishFunc func(*Txn)

func (f publishFunc) Published(x *Txn) { f(x) }

// finishedEntries counts the entries waiting on the shards' finished lists.
func finishedEntries(tm *TM) int {
	n := 0
	for _, sh := range tm.shards {
		sh.mu.Lock()
		n += len(sh.finished)
		sh.mu.Unlock()
	}
	return n
}

// onlyStamps fails the test if any shard log holds anything but CHECKPOINT
// records.
func onlyStamps(t *testing.T, tm *TM, when string) {
	t.Helper()
	for i := 0; i < tm.NumShards(); i++ {
		it := tm.ShardLog(i).Begin()
		for it.Next() {
			if r := it.Record(); r.Txn() != 0 || r.Type() != rlog.TypeCheckpoint {
				t.Errorf("%s: shard %d holds %v", when, i, r)
			}
		}
		it.Close()
	}
}

// TestFinishedListDrains pins the life of a finished transaction in a
// manager that keeps no table: an entry on its shard's list from END to the
// next checkpoint, and nothing afterwards.
func TestFinishedListDrains(t *testing.T) {
	const (
		shards    = 3
		commits   = 20
		rollbacks = 7
	)
	_, a, tm := newTM(t, trafficCfg(shards))
	data := dataBlock(a, 64, 0)
	run := func(i int, commit bool) {
		x := tm.Begin()
		if err := x.Write64(data+uint64(i%64)*8, uint64(i)); err != nil {
			t.Fatal(err)
		}
		end := x.Rollback
		if commit {
			end = x.Commit
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < commits; i++ {
		run(i, true)
	}
	for i := 0; i < rollbacks; i++ {
		run(i, false)
	}
	if got := finishedEntries(tm); got != commits+rollbacks {
		t.Fatalf("finished lists hold %d entries, want %d", got, commits+rollbacks)
	}

	// A transaction still running across the checkpoint keeps its records,
	// and its END — landing after the stamp freeze — hands it to the NEXT
	// checkpoint.
	straddler := tm.Begin()
	if err := straddler.Write64(data, 4242); err != nil {
		t.Fatal(err)
	}
	if cs := tm.CheckpointPaced(8); cs.Cleared != commits+rollbacks {
		t.Fatalf("Cleared = %d, want %d", cs.Cleared, commits+rollbacks)
	}
	if got := finishedEntries(tm); got != 0 {
		t.Fatalf("finished lists hold %d entries after a checkpoint", got)
	}
	if got := tm.ActiveTxns(); got != 1 {
		t.Fatalf("ActiveTxns = %d with one transaction open", got)
	}
	if err := straddler.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := finishedEntries(tm); got != 1 {
		t.Fatalf("finished lists hold %d entries after the straddler's END, want 1", got)
	}
	if cs := tm.CheckpointPaced(8); cs.Cleared != 1 {
		t.Fatalf("next checkpoint Cleared = %d, want the straddler", cs.Cleared)
	}
	onlyStamps(t, tm, "quiet manager")
	if got := tm.ActiveTxns(); got != 0 {
		t.Fatalf("ActiveTxns = %d on a quiet manager", got)
	}

	// The same under real interleavings: whatever freeze an END lands
	// beside, exactly one checkpoint clears its transaction.
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				x := tm.Begin()
				if err := x.Write64(data+uint64(w)*8, uint64(i)); err != nil {
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
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cleared := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cleared += tm.CheckpointPaced(8).Cleared
	}
	if cleared != shards*perWorker {
		t.Fatalf("checkpoints cleared %d transactions, %d committed", cleared, shards*perWorker)
	}
	onlyStamps(t, tm, "after traffic")
	if st := tm.Stats(); st.Committed != commits+1+shards*perWorker || st.RolledBack != rollbacks {
		t.Fatalf("Stats = %d committed, %d rolled back", st.Committed, st.RolledBack)
	}
}

// TestDirtyMarkSurvivesCrash pins the crash-detection word now that Begin
// consults a volatile mirror of it: the first Begin marks the image dirty
// before anything it logs can be durable, a clean Close clears the mark, and
// a Begin after Close marks it again.
func TestDirtyMarkSurvivesCrash(t *testing.T) {
	cfg := trafficCfg(1)
	m, a, tm := newTM(t, cfg)
	data := dataBlock(a, 1, 0)
	reopen := func() (*TM, *RecoveryStats) {
		t.Helper()
		a2, err := pmem.Open(m)
		if err != nil {
			t.Fatal(err)
		}
		tm2, rs, err := Open(a2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tm2, rs
	}
	crash := func() {
		t.Helper()
		if err := m.Crash(); err != nil {
			t.Fatal(err)
		}
	}

	if err := tm.Begin().Write64(data, 1); err != nil {
		t.Fatal(err)
	}
	crash()
	tm, rs := reopen()
	if !rs.CrashDetected {
		t.Fatal("Begin + one write + crash: CrashDetected = false")
	}

	x := tm.Begin()
	if err := x.Write64(data, 2); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	tm.Close()
	crash() // nothing volatile is left to lose
	tm, rs = reopen()
	if rs.CrashDetected {
		t.Fatal("clean Close: CrashDetected = true")
	}

	tm.Close()
	if err := tm.Begin().Write64(data, 3); err != nil {
		t.Fatal(err)
	}
	crash()
	if _, rs = reopen(); !rs.CrashDetected {
		t.Fatal("Begin after Close on the same manager did not re-mark the image")
	}
}
