package rewind_test

// One testing.B benchmark per figure of the paper's evaluation (§5). Each
// benchmark regenerates the figure at quick scale and reports its headline
// numbers as custom metrics, so `go test -bench=.` doubles as a shape
// check against the paper. cmd/rewind-bench prints the full tables and
// supports -scale full.

import (
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/bench"
	"github.com/rewind-db/rewind/kv"
	"github.com/rewind-db/rewind/server"
)

// last returns the final point of the named series (the figure's rightmost
// x — usually the headline the paper quotes).
func last(f bench.Figure, series string) float64 {
	for _, s := range f.Series {
		if s.Name == series && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return -1
}

func first(f bench.Figure, series string) float64 {
	for _, s := range f.Series {
		if s.Name == series && len(s.Points) > 0 {
			return s.Points[0].Y
		}
	}
	return -1
}

func BenchmarkFig3aLoggingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig3a(bench.Quick)
		b.ReportMetric(first(f, "1L-NFP/Optimized"), "slowdown-1L-NFP@10%")
		b.ReportMetric(last(f, "1L-NFP/Optimized"), "slowdown-1L-NFP@100%")
		b.ReportMetric(last(f, "2L-NFP/Optimized"), "slowdown-2L-NFP@100%")
	}
}

func BenchmarkFig3bSkipRecords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig3b(bench.Quick)
		b.ReportMetric(last(f, "1L-FP/Optimized"), "slowdown-1L@1000skip")
		b.ReportMetric(last(f, "2L-FP/Optimized"), "slowdown-2L@1000skip")
	}
}

func BenchmarkFig4aRollback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig4a(bench.Quick)
		b.ReportMetric(last(f, "1L-FP/Optimized"), "ms-1L@1000skip")
		b.ReportMetric(last(f, "2L-FP/Optimized"), "ms-2L@1000skip")
	}
}

func BenchmarkFig4bRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig4b(bench.Quick)
		b.ReportMetric(last(f, "1L-FP/Optimized"), "ms-1L@1000skip")
		b.ReportMetric(last(f, "2L-FP/Optimized"), "ms-2L@1000skip")
	}
}

func BenchmarkFig5RecoveryFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig5(bench.Quick)
		b.ReportMetric(last(f, "1L-NFP-300"), "s-NFP-300@all-recovered")
		b.ReportMetric(last(f, "1L-FP-300"), "s-FP-300@all-recovered")
	}
}

func BenchmarkFig6Checkpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig6(bench.Quick)
		b.ReportMetric(first(f, "Simple"), "pct-simple@2")
		b.ReportMetric(first(f, "Optimized"), "pct-optimized@2")
		b.ReportMetric(first(f, "Batch"), "pct-batch@2")
	}
}

func BenchmarkFig7aBtreeLogging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig7a(bench.Quick)
		b.ReportMetric(last(f, "REWIND Batch")/last(f, "NVM"), "x-batch-vs-nvm")
		b.ReportMetric(last(f, "REWIND")/last(f, "REWIND Batch"), "x-simple-vs-batch")
	}
}

func BenchmarkFig7bVsBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig7b(bench.Quick)
		rw := last(f, "REWIND Batch")
		b.ReportMetric(last(f, "Stasis")/rw, "x-stasis-vs-rewind")
		b.ReportMetric(last(f, "BerkeleyDB")/rw, "x-bdb-vs-rewind")
		b.ReportMetric(last(f, "Shore-MT")/rw, "x-shoremt-vs-rewind")
	}
}

func BenchmarkFig8aBtreeRollback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig8a(bench.Quick)
		rw := last(f, "REWIND Batch")
		b.ReportMetric(last(f, "Stasis")/rw, "x-stasis-vs-rewind")
		b.ReportMetric(last(f, "BerkeleyDB")/rw, "x-bdb-vs-rewind")
		b.ReportMetric(last(f, "Shore-MT")/rw, "x-shoremt-vs-rewind")
	}
}

func BenchmarkFig8bBtreeRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig8b(bench.Quick)
		rw := last(f, "REWIND Batch")
		b.ReportMetric(last(f, "Stasis")/rw, "x-stasis-vs-rewind")
		b.ReportMetric(last(f, "BerkeleyDB")/rw, "x-bdb-vs-rewind")
		b.ReportMetric(last(f, "Shore-MT")/rw, "x-shoremt-vs-rewind")
	}
}

func BenchmarkFig9Multithreaded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig9(bench.Quick)
		b.ReportMetric(last(f, "REWIND Batch"), "s-rewind@8threads")
		b.ReportMetric(last(f, "Stasis"), "s-stasis@8threads")
	}
}

func BenchmarkFig10FenceSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig10(bench.Quick)
		// The paper's headline: Optimized slows 5x across the sweep,
		// Batch 8/16/32 only 1.63/1.32/1.18x.
		b.ReportMetric(last(f, "REWIND Opt.")/first(f, "REWIND Opt."), "x-optimized-slowdown")
		b.ReportMetric(last(f, "REWIND Batch 8")/first(f, "REWIND Batch 8"), "x-batch8-slowdown")
		b.ReportMetric(last(f, "REWIND Batch 32")/first(f, "REWIND Batch 32"), "x-batch32-slowdown")
	}
}

func BenchmarkFig11TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.Fig11(bench.Quick)
		b.ReportMetric(last(f, "Simple NVM B+Trees"), "ktpm-nonrecoverable")
		b.ReportMetric(last(f, "REWIND Naive"), "ktpm-naive")
		b.ReportMetric(last(f, "REWIND Opt. Data Structure"), "ktpm-optimized")
		b.ReportMetric(last(f, "REWIND Opt. D.Log"), "ktpm-distributed")
	}
}

func BenchmarkSpanLogging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.SpanLogging(bench.Quick)
		b.ReportMetric(first(f, "append ratio"), "append-ratio@2w")
		b.ReportMetric(last(f, "append ratio"), "append-ratio@32w")
		b.ReportMetric(last(f, "fence ratio"), "fence-ratio@32w")
		b.ReportMetric(last(f, "sim-time speedup"), "speedup@32w")
	}
}

func BenchmarkShardScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.ShardScaling(bench.Quick)
		b.ReportMetric(first(f, "REWIND Batch"), "ktxn/s@1shard")
		b.ReportMetric(last(f, "REWIND Batch"), "ktxn/s@8shards")
		b.ReportMetric(last(f, "shard balance"), "balance@8shards")
	}
}

// TestShardScalingSpeedup asserts the sharded log's headline: with 4 worker
// goroutines, 4 shards deliver at least twice the commit throughput of the
// single global log on the simulated device. It runs in -short mode too —
// it is quick, and it guards the feature this PR exists for.
func TestShardScalingSpeedup(t *testing.T) {
	f := bench.ShardScaling(bench.Quick)
	at := func(series string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("series %q has no point at x=%v", series, x)
		return 0
	}
	one, four := at("REWIND Batch", 1), at("REWIND Batch", 4)
	if four < 2*one {
		t.Errorf("4 shards = %.1f ktxn/s, 1 shard = %.1f ktxn/s: speedup %.2fx < 2x", four, one, four/one)
	}
	if bal := at("shard balance", 4); bal < 0.9 {
		t.Errorf("shard balance %.2f at 4 shards; striping by txn id should stay near 1.0", bal)
	}
}

// TestServerGroupCommitSpeedup asserts the rewindd subsystem's headline
// (the ISSUE 3 acceptance gate): with 8 client connections against the
// real TCP server stack, acked-commit throughput on the simulated device
// is at least 2x higher with cross-connection group commit than without,
// and the batching is real (measured commits-per-flush well above 1). It
// runs in -short mode too — it guards the feature this PR exists for.
func TestServerGroupCommitSpeedup(t *testing.T) {
	f := bench.ServerThroughput(bench.Quick)
	at := func(series string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("series %q has no point at x=%v", series, x)
		return 0
	}
	on, off := at("group-commit on", 8), at("group-commit off", 8)
	if on < 2*off {
		t.Errorf("8 conns: group commit on = %.1f kops/s, off = %.1f kops/s: speedup %.2fx < 2x",
			on, off, on/off)
	}
	if fi := at("commits/flush", 8); fi < 2 {
		t.Errorf("commits/flush = %.2f at 8 conns; rounds are not batching", fi)
	}
	// The speedup must come from concurrency: a single connection has
	// nothing to share a round with.
	if solo := at("group-commit on", 1); solo > 1.5*at("group-commit off", 1) {
		t.Errorf("1-conn group commit %.1fx faster than off; the win should need fan-in", solo/at("group-commit off", 1))
	}
}

// pointAt returns series' y at x in f.
func pointAt(t *testing.T, f bench.Figure, series string, x float64) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
	}
	t.Fatalf("series %q has no point at x=%v", series, x)
	return 0
}

// TestPipelineFanIn is the deterministic gate for commit pipelining within
// a connection (ROADMAP item 3): ONE connection keeping 32 overwrites in
// flight against the real TCP server stack must fill group-commit rounds
// by itself — at most 0.1 log fences per acked PUT, and at least 3x the
// acked PUTs per modeled device second of the same connection at depth 1,
// on the server figure's 5µs-fence device. Both sides of the gate are
// device counters: the figure's client sends each burst in one write, so
// burst boundaries do not depend on the scheduler. The depth-1 end is held
// too: a lone, unpipelined PUT still buys its own flush — and does so
// without sleeping a gather window, which the wall-clock series (reported,
// not gated) would show as a ~10x collapse at depth 1. Runs in -short mode.
func TestPipelineFanIn(t *testing.T) {
	f := bench.Pipeline(bench.Quick)
	deep := float64(bench.PipelineDepths[len(bench.PipelineDepths)-1])
	d1, d32 := pointAt(t, f, "kops/s simulated", 1), pointAt(t, f, "kops/s simulated", deep)
	if d32 < 3*d1 {
		t.Errorf("depth %v = %.1f kops/modeled-s, depth 1 = %.1f: pipelining speedup %.2fx < 3x", deep, d32, d1, d32/d1)
	}
	if fo := pointAt(t, f, "fences/op", deep); fo > 0.1 {
		t.Errorf("depth %v pays %.3f fences/op > 0.1: the burst is not sharing one flush", deep, fo)
	}
	if fo := pointAt(t, f, "fences/op", 1); fo < 0.9 {
		t.Errorf("depth 1 pays %.3f fences/op: an unpipelined PUT was acked without a flush of its own", fo)
	}
	t.Logf("wall clock: depth 1 = %.1f kops/s, depth %v = %.1f kops/s",
		pointAt(t, f, "kops/s wall", 1), deep, pointAt(t, f, "kops/s wall", deep))
}

func BenchmarkServerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.ServerThroughput(bench.Quick)
		b.ReportMetric(last(f, "group-commit on"), "kops/s-gc@8conns")
		b.ReportMetric(last(f, "group-commit off"), "kops/s-nogc@8conns")
		b.ReportMetric(last(f, "commits/flush"), "commits/flush@8conns")
	}
}

// committedFigure loads the one figure a checked-in BENCH_*.json holds:
// those files are committed (unlike the other BENCH artifacts) precisely so
// the acceptance evidence travels with the code.
func committedFigure(t *testing.T, path string) bench.Figure {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("committed figure missing: %v (regenerate with `go run ./cmd/rewind-bench -json`)", err)
	}
	var committed struct {
		Figures []bench.Figure `json:"figures"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil || len(committed.Figures) != 1 {
		t.Fatalf("%s: %v (%d figures)", path, err, len(committed.Figures))
	}
	return committed.Figures[0]
}

// getsDuringCommitWait counts the GETs a reader completes on a one-stripe
// store while a PUT to that stripe waits out a 50 ms group-commit window
// (an open transaction is the company the round's leader waits for),
// reading optimistically or the reference way: exclusive reads beside
// serial writes, which hold the stripe latch across the commit wait.
func getsDuringCommitWait(t *testing.T, exclusive bool) int64 {
	st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20, GroupCommit: true, GroupCommitWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 1, MaxValue: 16, ExclusiveReads: exclusive, SerialWrites: exclusive})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 2; k++ {
		if err := kvs.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	company := st.Begin()
	defer company.Rollback()
	logged := st.LogBytes()
	put := make(chan error, 1)
	go func() { put <- kvs.Put(1, []byte("new")) }()
	for st.LogBytes() == logged { // the PUT is published: its wait begins
		runtime.Gosched()
	}
	var served int64
	for {
		kvs.Get(2)
		select {
		case err := <-put:
			if err != nil {
				t.Fatal(err)
			}
			return served
		default:
			served++
		}
	}
}

// TestReadPathSpeedup asserts the latch-free read path's headline: readers
// do not park behind commit waits. Counted directly, a GET on the PUT's
// stripe completes again and again while the PUT waits out its
// group-commit window, and at least twice as often plus ten as on the
// exclusive-latch baseline, which serves next to none. (The figure measures
// the consequence over TCP on the wall clock, which wanders with host
// load: 8 readers, 50/50, optimistic ≥ 2x exclusive, ≈ 16x on a 1-CPU
// host.) The committed figure must make the same claims: that 2x, and no
// collapse below half the baseline on the light 95/5 mix. It runs in
// -short mode too — it guards the feature the read path exists for.
func TestReadPathSpeedup(t *testing.T) {
	opt, excl := getsDuringCommitWait(t, false), getsDuringCommitWait(t, true)
	t.Logf("GETs served during one 50 ms commit wait: optimistic %d, exclusive %d", opt, excl)
	if opt < 2*excl+10 {
		t.Errorf("GETs served during one 50 ms commit wait: optimistic %d, exclusive %d; want at least 2x plus 10", opt, excl)
	}
	f := committedFigure(t, "BENCH_readpath.json")
	if o, e := pointAt(t, f, "optimistic 50/50", 8), pointAt(t, f, "exclusive 50/50", 8); o < 2*e {
		t.Errorf("committed BENCH_readpath.json shows only %.2fx at 8 readers, 50/50", o/e)
	}
	if o, e := pointAt(t, f, "optimistic 95/5", 8), pointAt(t, f, "exclusive 95/5", 8); o < e/2 {
		t.Errorf("committed BENCH_readpath.json: 8 readers, 95/5: optimistic = %.1f kGET/s collapsed far below exclusive = %.1f kGET/s", o, e)
	}
}

// ycsbACost drives YCSB workload A's op stream — 400 ops, half GETs and
// half PUTs over 256 preloaded keys — over one connection through the real
// server, single-shot or 8 ops per BEGIN…COMMIT, and returns what an op
// costs in requests served and in device time.
func ycsbACost(t *testing.T, useTxn bool) (requests, deviceNs float64) {
	const ops, keys, group = 400, 256, 8
	st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20, GroupSize: 64, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 8, MaxValue: 64})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for k := uint64(1); k <= keys; k++ {
		if err := kvs.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(kvs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
	defer cl.Close()

	before := srv.Stats()
	rng := rand.New(rand.NewSource(42))
	var tx *client.Txn
	for i := 0; i < ops; i++ {
		if useTxn && tx == nil {
			if tx, err = cl.Begin(); err != nil {
				t.Fatal(err)
			}
		}
		k, read := uint64(rng.Intn(keys))+1, rng.Intn(2) == 0
		switch {
		case read && useTxn:
			_, err = tx.Get(k)
		case read:
			_, err = cl.Get(k)
		case useTxn:
			err = tx.Put(k, val)
		default:
			err = cl.Put(k, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if useTxn && (i%group == group-1 || i == ops-1) {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = nil
		}
	}
	after := srv.Stats()
	return float64(after.Requests-before.Requests) / ops, float64(after.DeviceSimNs-before.DeviceSimNs) / ops
}

// TestYCSBTxnOverhead asserts the interactive-transaction acceptance gate:
// YCSB workload A (50/50 read/update — the update-heaviest core workload)
// run over BEGIN…COMMIT conversations costs an op at most twice what the
// same op stream costs as single-shot GET/PUT. The txn frames add one BEGIN
// and one COMMIT round-trip per ~8 ops plus commit-time validation; if that
// ever costs more than half the throughput, handle reuse has regressed into
// per-op overhead. Counted, not timed: requests served per op (the round
// trips a loopback run is made of) and device time per op. The committed
// BENCH_ycsb.json must make the same claim on the wall clock so the
// evidence travels with the code.
func TestYCSBTxnOverhead(t *testing.T) {
	singleReq, singleDev := ycsbACost(t, false)
	txnReq, txnDev := ycsbACost(t, true)
	t.Logf("workload A per op: %.2f requests and %.0f device ns over txns vs %.2f and %.0f single-shot", txnReq, txnDev, singleReq, singleDev)
	if txnReq > 2*singleReq || txnDev > 2*singleDev {
		t.Errorf("workload A per op: %.2f requests and %.0f device ns over txns vs %.2f and %.0f single-shot; gate is 2x",
			txnReq, txnDev, singleReq, singleDev)
	}
	f := committedFigure(t, "BENCH_ycsb.json")
	single, txn := pointAt(t, f, "single-shot", 1), pointAt(t, f, "interactive txn", 1)
	if txn <= 0 || single <= 0 {
		t.Fatalf("committed BENCH_ycsb.json: non-positive throughput (single=%.2f txn=%.2f)", single, txn)
	}
	if txn < single/2 {
		t.Errorf("committed BENCH_ycsb.json: workload A over txns = %.1f kops/s vs %.1f single-shot: %.2fx slower, gate is 2x",
			txn, single, single/txn)
	}
}

func BenchmarkYCSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.YCSB(bench.Quick)
		b.ReportMetric(first(f, "single-shot"), "kops/s-single@A")
		b.ReportMetric(first(f, "interactive txn"), "kops/s-txn@A")
	}
}

func BenchmarkTPCCNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.TPCCNet(bench.Quick)
		b.ReportMetric(last(f, "interactive txn"), "orders/s-txn")
		b.ReportMetric(last(f, "batch baseline"), "orders/s-batch")
	}
}

func BenchmarkReadPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.ReadPath(bench.Quick)
		b.ReportMetric(last(f, "optimistic 50/50"), "kGET/s-opt5050@8conns")
		b.ReportMetric(last(f, "exclusive 50/50"), "kGET/s-excl5050@8conns")
		b.ReportMetric(last(f, "optimistic 95/5"), "kGET/s-opt9505@8conns")
	}
}

func BenchmarkRecoveryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.RecoveryScaling(bench.Quick)
		b.ReportMetric(first(f, "modeled makespan"), "ms@1worker")
		b.ReportMetric(last(f, "modeled makespan"), "ms@8workers")
		b.ReportMetric(last(f, "speedup"), "x@8workers")
	}
}

// TestRecoveryScalingSpeedup asserts the parallel-recovery headline (the
// ISSUE 4 acceptance gate): on the 8-shard crash image, a 4-worker pool
// recovers at least twice as fast as the sequential pass. The comparison is
// the modeled makespan on the simulated device — per-shard analysis/redo
// charges divided by the pool's static shard assignment, serial phases in
// full — the same deterministic convention TestShardScalingSpeedup uses, so
// the gate does not flake with host core count or load (this suite must
// hold on a 1-CPU runner, where a wall-clock 4-worker speedup is physically
// impossible). Byte-equivalence of what the workers produce is proven
// separately by core's TestRecoveryCrashEquivalence. It runs in -short mode
// too — it guards the feature this PR exists for.
func TestRecoveryScalingSpeedup(t *testing.T) {
	f := bench.RecoveryScaling(bench.Quick)
	at := func(series string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("series %q has no point at x=%v", series, x)
		return 0
	}
	one, four := at("modeled makespan", 1), at("modeled makespan", 4)
	if one < 2*four {
		t.Errorf("4-worker recovery %.1f ms vs sequential %.1f ms: speedup %.2fx < 2x", four, one, one/four)
	}
	if sp := at("speedup", 8); sp <= at("speedup", 4) {
		t.Errorf("speedup plateaus: %.2fx at 8 workers vs %.2fx at 4", sp, at("speedup", 4))
	}
}

// TestSpanLoggingSavings asserts the span-record headline: a WriteBytes of
// 8 words issues at least 4x fewer log appends and fences than logging the
// same words one record each, and is measurably faster on the simulated
// device. It runs in -short mode too — it is quick, and it guards the
// feature this PR exists for (crash-recovery equivalence of the two paths
// is proven separately by core's TestSpanCrashMatrix).
func TestSpanLoggingSavings(t *testing.T) {
	f := bench.SpanLogging(bench.Quick)
	at := func(series string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("series %q has no point at x=%v", series, x)
		return 0
	}
	if r := at("append ratio", 8); r < 4 {
		t.Errorf("8-word span issues only %.2fx fewer log appends, want >= 4x", r)
	}
	if r := at("fence ratio", 8); r < 4 {
		t.Errorf("8-word span issues only %.2fx fewer fences, want >= 4x", r)
	}
	if s := at("sim-time speedup", 8); s < 1.5 {
		t.Errorf("8-word span only %.2fx faster on the simulated device, want >= 1.5x", s)
	}
	// The savings must grow with the span, not plateau at the gate.
	if at("append ratio", 32) <= at("append ratio", 8) {
		t.Error("append savings do not grow with span width")
	}
}

// TestRedoOnlyLogFootprint asserts the redo-only commit mode's headline
// (the ISSUE 6 acceptance gate) on device counters, not wall clock: at both
// 1 and 4 log shards, redo-only commits append at least 1.8x fewer log
// bytes per commit than undo/redo for the same 64-word-span workload, with
// no regression in fences per commit. A second check crashes a redo-only
// store and asserts the recovery at reopen performed zero undo work — the
// serial phase the mode exists to skip. It runs in -short mode too — it
// guards the feature this PR exists for (crash equivalence of the two
// modes is proven separately by core's TestRecoveryCrashEquivalence and
// TestRedoOnlyCrashMatrix).
func TestRedoOnlyLogFootprint(t *testing.T) {
	const txns = 500
	for _, shards := range []int{1, 4} {
		ur := bench.LogFootprintPoint(rewind.UndoRedo, shards, txns)
		ro := bench.LogFootprintPoint(rewind.RedoOnly, shards, txns)
		if ur.Commits != int64(txns) || ro.Commits != int64(txns) {
			t.Fatalf("%d shards: commits UR=%d RO=%d, want %d", shards, ur.Commits, ro.Commits, txns)
		}
		if ratio := ur.BytesPerCommit() / ro.BytesPerCommit(); ratio < 1.8 {
			t.Errorf("%d shards: UR %.0f bytes/commit vs RO %.0f: ratio %.2fx < 1.8x",
				shards, ur.BytesPerCommit(), ro.BytesPerCommit(), ratio)
		}
		if ro.Fences > ur.Fences {
			t.Errorf("%d shards: redo-only issued %d fences vs undo/redo's %d — fence regression",
				shards, ro.Fences, ur.Fences)
		}
	}

	// Recovery under redo-only is analysis + redo: no undo records, no CLRs.
	st, err := rewind.Open(rewind.Options{CommitMode: rewind.RedoOnly})
	if err != nil {
		t.Fatal(err)
	}
	addr := st.Alloc(64)
	for i := uint64(0); i < 8; i++ {
		if err := st.Atomic(func(tx *rewind.Tx) error {
			return tx.Write64(addr+i*8, i+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := st.Crash()
	if err != nil {
		t.Fatal(err)
	}
	rs := st2.Recovery
	if rs.Undone != 0 || rs.CLRRecords != 0 {
		t.Errorf("redo-only recovery performed undo work: Undone=%d CLRRecords=%d", rs.Undone, rs.CLRRecords)
	}
	if rs.Redone == 0 {
		t.Error("redo-only recovery redid nothing; committed spans should replay")
	}
	for i := uint64(0); i < 8; i++ {
		if got := st2.Read64(addr + i*8); got != i+1 {
			t.Fatalf("word %d = %d after recovery, want %d", i, got, i+1)
		}
	}
}

// TestWritePathScaling asserts the fine-grained write path's headline
// (the ISSUE 7 acceptance gate) on device counters, not wall clock: with
// 8 concurrent writers hammering a single stripe on the simulated
// 5µs-fence device, the overwrite-heavy mix commits at least 2x more ops
// per modeled device second than the stripe-serial baseline
// (kv.Config.SerialWrites), and at least 90% of those puts took the CAS
// overwrite fast path. The mechanism is checked, not just the outcome:
// the serial baseline holds the stripe latch across its commit wait, so
// every commit buys its own flush and the fence bill stays near 1
// fence/op, while the fine path releases every latch at publish and the
// 8 writers' commits share group-commit rounds — fences per op must
// collapse to less than half the serial bill. (That sharing is only
// possible if latch-hold spans exclude the commit wait; the direct
// in-process proof — zero fences between op start and seqlock publish —
// is kv's TestLatchSpanExcludesCommitWait.) It runs in -short mode too —
// it guards the feature this PR exists for (crash safety of the fast
// path is proven separately by kv's TestOverwriteFastPathCrashMatrix).
func TestWritePathScaling(t *testing.T) {
	f := bench.WritePath(bench.Quick)
	at := func(series string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("series %q has no point at x=%v", series, x)
		return 0
	}
	fine, serial := at("fine ow", 1), at("serial ow", 1)
	if fine < 2*serial {
		t.Errorf("8 writers, 1 stripe, overwrite mix: fine = %.1f kops/modeled-s, serial = %.1f: speedup %.2fx < 2x",
			fine, serial, fine/serial)
	}
	if hit := at("fastpath% ow", 1); hit < 90 {
		t.Errorf("overwrite fast-path hit ratio %.1f%% < 90%% on the overwrite-heavy mix", hit)
	}
	ff, fs := at("fence/op ow fine", 1), at("fence/op ow serial", 1)
	if ff > fs/2 {
		t.Errorf("fine path pays %.2f fences/op vs serial %.2f — commits are not sharing rounds, so latches are not released before the commit wait", ff, fs)
	}
	// Insert-heavy writes route through per-leaf latches rather than the
	// CAS fast path; they must not fall behind the serial baseline. Every
	// insert is waited for on either path, so the gate reads the count the
	// modeled rate is made of — fences per op — instead of the rate: over
	// twenty consecutive runs fine paid 1.35–1.56 and serial 1.67–2.07.
	if fi, si := at("fence/op ins fine", 1), at("fence/op ins serial", 1); fi > si {
		t.Errorf("insert-heavy mix regressed: fine pays %.2f fences/op, serial %.2f", fi, si)
	}
}

// TestObsOverhead is the observability acceptance gate: the full metrics
// stack (registry, spans, phase histograms, flight ring) must cost ≤5%
// on the modeled clock versus a bare store running the identical op
// sequence. Group commit is off, so the device counters are a
// deterministic function of the workload — instrumentation doing any
// device work at all would desynchronize them, and charging any simulated
// time would break the 5% bound exactly rather than probabilistically.
func TestObsOverhead(t *testing.T) {
	const ops = 4_000
	r := bench.ObsOverheadRun(ops)
	if r.FencesOn != r.FencesOff {
		t.Errorf("instrumented run issued different device fences: on=%d off=%d", r.FencesOn, r.FencesOff)
	}
	if r.SimNsOff <= 0 {
		t.Fatalf("bare run accumulated no simulated time")
	}
	if overhead := float64(r.SimNsOn)/float64(r.SimNsOff) - 1; overhead > 0.05 {
		t.Errorf("modeled-clock overhead %.1f%% > 5%% (simNs on=%d off=%d)", overhead*100, r.SimNsOn, r.SimNsOff)
	}
	// The instrumented side really was instrumented: every op landed in an
	// op histogram and commits recorded flush+fence phase time.
	if r.SpansSeen != ops {
		t.Errorf("op histograms saw %d spans, want %d", r.SpansSeen, ops)
	}
	if r.PhasesSeen == 0 {
		t.Error("no flush_fence phase observations on the instrumented run")
	}
}

func BenchmarkObsOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.ObsOverheadRun(4_000)
		b.ReportMetric(float64(r.SimNsOn)/float64(r.SimNsOff), "simtime-ratio-on/off")
		b.ReportMetric(float64(r.WallOff)/float64(r.WallOn), "wall-throughput-ratio-on/off")
	}
}

func BenchmarkWritePath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := bench.WritePath(bench.Quick)
		b.ReportMetric(first(f, "fine ow"), "kops/msim-fine-ow@1stripe")
		b.ReportMetric(first(f, "serial ow"), "kops/msim-serial-ow@1stripe")
		b.ReportMetric(first(f, "fastpath% ow"), "fastpath%@1stripe")
		b.ReportMetric(first(f, "fence/op ow fine"), "fence/op-fine@1stripe")
	}
}

// TestFigureShapes asserts the qualitative claims the paper makes — who
// wins, in which direction curves move — so a regression in any subsystem
// that would flip a conclusion fails the suite, not just the eyeball.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	t.Run("fig3a", func(t *testing.T) {
		f := bench.Fig3a(bench.Quick)
		if l := first(f, "1L-NFP/Optimized"); l > 2.5 {
			t.Errorf("1L-NFP overhead at 10%% intensity = %.2fx, paper ~1.5x", l)
		}
		if last(f, "2L-NFP/Optimized") <= last(f, "1L-NFP/Optimized") {
			t.Error("two-layer logging not costlier than one-layer")
		}
		if last(f, "1L-FP/Optimized") <= last(f, "1L-NFP/Optimized") {
			t.Error("force policy not costlier than no-force")
		}
	})
	t.Run("fig4a", func(t *testing.T) {
		f := bench.Fig4a(bench.Quick)
		for _, s := range f.Series {
			if s.Name == "1L-FP/Optimized" {
				if s.Points[len(s.Points)-1].Y <= s.Points[0].Y {
					t.Error("one-layer rollback does not grow with skip records")
				}
			}
		}
	})
	t.Run("fig4b", func(t *testing.T) {
		// The paper's 2L recovery loses badly to 1L because its AVL
		// iteration during analysis is slow; our chain-walk analysis is
		// leaner, so the two converge. Assert the paper's *qualitative*
		// point — the 2L advantage of Figure 4a vanishes at recovery —
		// rather than its magnitude (see EXPERIMENTS.md).
		f := bench.Fig4b(bench.Quick)
		if last(f, "1L-FP/Optimized") >= 2*last(f, "2L-FP/Optimized") {
			t.Error("one-layer recovery more than 2x slower than two-layer (paper: 1L wins)")
		}
	})
	t.Run("fig7a", func(t *testing.T) {
		f := bench.Fig7a(bench.Quick)
		if !(last(f, "DRAM") < last(f, "NVM") && last(f, "NVM") < last(f, "REWIND Batch")) {
			t.Error("DRAM < NVM < REWIND ordering violated")
		}
		if !(last(f, "REWIND Batch") < last(f, "REWIND Opt.") && last(f, "REWIND Opt.") < last(f, "REWIND")) {
			t.Error("Batch < Optimized < Simple ordering violated")
		}
	})
	t.Run("fig7b", func(t *testing.T) {
		f := bench.Fig7b(bench.Quick)
		rw := last(f, "REWIND Batch")
		for _, name := range []string{"Stasis", "BerkeleyDB", "Shore-MT"} {
			if ratio := last(f, name) / rw; ratio < 10 {
				t.Errorf("%s only %.1fx slower than REWIND; paper reports orders of magnitude", name, ratio)
			}
		}
		if last(f, "BerkeleyDB") <= last(f, "Stasis") {
			t.Error("BerkeleyDB not costlier than Stasis")
		}
	})
	t.Run("pipeline", func(t *testing.T) {
		// Fence amortization within one connection is monotone in depth:
		// each doubling may only lower the fence bill and raise throughput.
		f := bench.Pipeline(bench.Quick)
		for i := 1; i < len(bench.PipelineDepths); i++ {
			lo, hi := float64(bench.PipelineDepths[i-1]), float64(bench.PipelineDepths[i])
			if pointAt(t, f, "fences/op", hi) >= pointAt(t, f, "fences/op", lo) {
				t.Errorf("fences/op did not fall from depth %v to %v", lo, hi)
			}
			if pointAt(t, f, "kops/s simulated", hi) <= pointAt(t, f, "kops/s simulated", lo) {
				t.Errorf("modeled throughput did not rise from depth %v to %v", lo, hi)
			}
		}
	})
	t.Run("fig10", func(t *testing.T) {
		f := bench.Fig10(bench.Quick)
		opt := last(f, "REWIND Opt.") / first(f, "REWIND Opt.")
		b8 := last(f, "REWIND Batch 8") / first(f, "REWIND Batch 8")
		b32 := last(f, "REWIND Batch 32") / first(f, "REWIND Batch 32")
		if !(b32 < b8 && b8 < opt) {
			t.Errorf("fence sensitivity not flattened by grouping: opt=%.2fx b8=%.2fx b32=%.2fx", opt, b8, b32)
		}
	})
}
