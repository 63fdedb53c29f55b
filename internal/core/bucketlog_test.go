package core

import (
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// servingCfg is the configuration rewindd serves, with small buckets.
var servingCfg = Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, BucketSize: 16, GroupSize: 4, RootBase: rootBase}

// TestOpenParentWrittenLog: a store whose log was written by the parent
// commit — kind word unstamped, every record in a pmem block of its own —
// recovers under this binary (the winner redone, the loser undone), serves,
// checkpoints, and ends with nothing leaked: the record blocks are freed by
// address, not taken for parts of a bucket. The buckets here are the
// current size; rlog.TestParentLayoutLogUpgrades covers the parent's.
func TestOpenParentWrittenLog(t *testing.T) {
	m, a, tm := newTM(t, servingCfg)
	data := dataBlock(a, 8, 100)

	// One committed transaction and a checkpoint first, so the baseline
	// includes the log's tail bucket.
	x := tm.Begin()
	if err := x.Write64(data, 1); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	tm.Checkpoint()
	before := a.HeapLive()

	log := tm.RawLog()
	m.StoreNT64(log.HeaderAddr(), uint64(rlog.Batch)) // the parent's kind word
	lsn := tm.LSN()
	parentAppend := func(f rlog.Fields, end bool) {
		lsn++
		f.LSN = lsn
		log.Append(rlog.AllocDeferred(a, f).Addr, end)
	}
	const winner, loser = 1000, 1001
	for i := uint64(0); i < 20; i++ { // spills into a second bucket
		parentAppend(rlog.Fields{Txn: winner, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
			Addr: data + (i%4)*8, Old: 100 + i%4, New: 500 + i}, false)
	}
	parentAppend(rlog.Fields{Txn: winner, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
		Addr: data + 32, OldSpan: []uint64{104, 105}, NewSpan: []uint64{604, 605}}, false)
	parentAppend(rlog.Fields{Txn: winner, Type: rlog.TypeEnd}, true)
	parentAppend(rlog.Fields{Txn: loser, Type: rlog.TypeUpdate, Flags: rlog.FlagUndoable,
		Addr: data + 56, Old: 107, New: 999}, false)
	m.Store64(data+56, 999) // the loser's in-place write
	log.ForceFlush()
	m.FlushAll()
	if a.HeapLive() <= before {
		t.Fatal("parent-style records occupy no blocks of their own")
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}

	a2, err := pmem.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	tm2, rs, err := Open(a2, servingCfg)
	if err != nil {
		t.Fatalf("opening a parent-written store: %v", err)
	}
	if rs.Winners != 1 || rs.LosersAborted != 1 {
		t.Fatalf("recovery found %d winners and %d losers, want 1 and 1", rs.Winners, rs.LosersAborted)
	}
	want := []uint64{516, 517, 518, 519, 604, 605, 106, 107}
	for i, w := range want {
		if got := m.Load64(data + uint64(i)*8); got != w {
			t.Fatalf("word %d = %d after recovery, want %d", i, got, w)
		}
	}
	if w := m.Load64(tm2.RawLog().HeaderAddr()); w == uint64(rlog.Batch) {
		t.Fatal("log header still carries the parent's kind word: the parent would open this store")
	}

	y := tm2.Begin()
	if err := y.WriteBytes(data, []byte("sixteen bytes..!")); err != nil {
		t.Fatal(err)
	}
	if err := y.Commit(); err != nil {
		t.Fatal(err)
	}
	tm2.Checkpoint()
	if got := a2.HeapLive(); got != before {
		t.Fatalf("heap holds %d B after recovery and a checkpoint, %d before the parent-style log: %d leaked", got, before, got-before)
	}
	if err := a2.CheckHeap(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCommit is the core row of the cost ledger: Begin, one 16-byte
// WriteBytes, Commit on the serving configuration, each commit paying its
// own flush. rlog.BenchmarkAppendCommit is the same commit with the
// transaction manager taken away; kv's BenchmarkPutOverwrite adds the tree.
func BenchmarkCommit(b *testing.B) {
	m := nvm.New(nvm.Config{Size: 64 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	tm, err := New(a, Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, RootBase: rootBase})
	if err != nil {
		b.Fatal(err)
	}
	data := dataBlock(a, 2, 0)
	val := []byte("sixteen bytes..!")
	var dev nvm.Stats
	var logB int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		d0, l0 := m.Stats(), tm.Stats().LogBytes
		for end := min(b.N, i+2048); i < end; i++ {
			x := tm.Begin()
			if err := x.WriteBytes(data, val); err != nil {
				b.Fatal(err)
			}
			if err := x.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d := m.Stats().Sub(d0)
		logB += tm.Stats().LogBytes - l0
		dev.LineWrites, dev.NTStores, dev.SimulatedNS = dev.LineWrites+d.LineWrites, dev.NTStores+d.NTStores, dev.SimulatedNS+d.SimulatedNS
		tm.Checkpoint()
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(logB)/n, "logB/op")
	b.ReportMetric(float64(dev.LineWrites)/n, "lineWrites/op")
	b.ReportMetric(float64(dev.NTStores)/n, "ntStores/op")
	b.ReportMetric(float64(dev.SimulatedNS)/n, "simNs/op")
}
