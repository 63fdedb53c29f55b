package kv

// Tests for the latch-free read path (DESIGN.md §6) and the kv encoding
// fixes that rode along with it: the widened record length word, the
// honored unlimited Scan, and the short copy-out.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
)

// TestWideValueLengthWord: a store configured with MaxValue > 65535 — which
// the old 2-byte length encoding silently truncated, corrupting every
// round-trip past 64 KiB — stores and recovers large values exactly.
func TestWideValueLengthWord(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 2, MaxValue: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 70_000) // length overflows 16 bits by design
	rand.New(rand.NewSource(1)).Read(big)
	if err := s.Put(9, big); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(9); !ok || !bytes.Equal(v, big) {
		t.Fatalf("70k-byte round-trip: ok=%v len=%d (want %d)", ok, len(v), len(big))
	}
	// The length truncation bug would have read 70000 & 0xffff = 4464.
	if got := s.Scan(0, 99, 0); len(got) != 1 || !bytes.Equal(got[0].Value, big) {
		t.Fatalf("scan of the large value: %d pairs", len(got))
	}
	// The widened word is what lands on the durable image too.
	st2, err := s.Rewind().Crash()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Attach(st2, Config{Stripes: 2, MaxValue: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(9); !ok || !bytes.Equal(v, big) {
		t.Fatal("large value lost across crash recovery")
	}
}

// TestMaxValueArenaBound: a MaxValue the arena cannot physically hold is
// rejected at Create instead of panicking on the first insert.
func TestMaxValueArenaBound(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(st, Config{Stripes: 1, MaxValue: 8 << 20}); err == nil {
		t.Fatal("Create accepted a MaxValue larger than the arena")
	}
}

// TestEncodeWidth pins the record layout: the full leading word is the
// little-endian length.
func TestEncodeWidth(t *testing.T) {
	s := &Store{cfg: Config{MaxValue: 1 << 20}.withDefaults()}
	rec := s.encode(nil, make([]byte, 70_000))
	if n := binary.LittleEndian.Uint64(rec); n != 70_000 {
		t.Fatalf("length word = %d, want 70000", n)
	}
}

// TestScanUnlimited: limit <= 0 returns every pair; positive limits are
// exact. (The silent 1<<20 cap is exercised at its boundary by
// TestScanUnlimitedMillion below.)
func TestScanUnlimited(t *testing.T) {
	s := newKV(t, 4, false)
	const n = 5000
	var ops []Op
	for k := uint64(1); k <= n; k++ {
		ops = append(ops, Op{Key: k, Value: []byte{byte(k), byte(k >> 8)}})
		if len(ops) == 500 {
			if err := s.Batch(ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
	if got := s.Scan(0, 1<<63, 0); len(got) != n {
		t.Fatalf("unlimited scan returned %d pairs, want %d", len(got), n)
	}
	if got := s.Scan(0, 1<<63, -1); len(got) != n {
		t.Fatalf("negative-limit scan returned %d pairs, want %d", len(got), n)
	}
	if got := s.Scan(0, 1<<63, n-7); len(got) != n-7 {
		t.Fatalf("limited scan returned %d pairs, want %d", len(got), n-7)
	}
}

// TestScanUnlimitedMillion crosses the old silent cap: a store with more
// than 1<<20 keys must return every one of them from an unlimited Scan.
// Skipped under -short (it builds a million-key store).
func TestScanUnlimitedMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-key store build")
	}
	st, err := rewind.Open(rewind.Options{ArenaSize: 512 << 20, DisableTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 4, MaxValue: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1<<20 + 1000 // just past the old cap
	ops := make([]Op, 0, 8192)
	for k := uint64(1); k <= n; k++ {
		ops = append(ops, Op{Key: k, Value: []byte{byte(k)}})
		if len(ops) == cap(ops) || k == n {
			if err := s.Batch(ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
			// Trim the log so it does not outgrow the arena.
			s.Rewind().Checkpoint()
		}
	}
	got := s.Scan(0, 1<<63, 0)
	if len(got) != n {
		t.Fatalf("unlimited scan returned %d pairs, want %d (old cap: %d)", len(got), n, 1<<20)
	}
	for i, p := range got {
		if p.Key != uint64(i+1) {
			t.Fatalf("pair %d has key %d", i, p.Key)
		}
	}
	if capped := s.Scan(0, 1<<63, 1<<20); len(capped) != 1<<20 {
		t.Fatalf("limit 1<<20 returned %d pairs", len(capped))
	}
}

// TestGetCopiesOnlyUsedBytes: the read path allocates for the bytes a
// record actually uses, not Config.MaxValue — one small allocation per Get
// of a small value even in a store shaped for 4 KiB values.
func TestGetCopiesOnlyUsedBytes(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 2, MaxValue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(3, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	allocs := testing.AllocsPerRun(200, func() {
		v, ok := s.Get(3)
		if !ok {
			t.Fatal("key 3 missing")
		}
		sink = v
	})
	if allocs > 1 {
		t.Errorf("Get of a 4-byte value allocates %.1f objects/op, want 1", allocs)
	}
	if cap(sink) > 64 {
		t.Errorf("Get of a 4-byte value carries a %d-byte buffer; the old path copied all %d", cap(sink), 4096)
	}
	// Scan's copy-out takes the same short path.
	pairs := s.Scan(0, 99, 0)
	if len(pairs) != 1 || cap(pairs[0].Value) > 64 {
		t.Errorf("Scan copy-out: %d pairs, cap %d", len(pairs), cap(pairs[0].Value))
	}
}

// TestReadsAreFreeOfDurableTraffic pins the acceptance criterion that the
// read path issues ZERO log records and ZERO flushes: Get and Scan — hits,
// misses, retries and all — must not store, flush, or fence a single word
// of NVM, and must not touch the transaction machinery at all.
func TestReadsAreFreeOfDurableTraffic(t *testing.T) {
	s := newKV(t, 4, false)
	for k := uint64(1); k <= 200; k++ {
		if err := s.Put(k, []byte{byte(k), 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	commitsBefore := int64(0)
	for _, sh := range s.Rewind().ShardStats() {
		commitsBefore += sh.Commits
	}
	before := s.Rewind().Stats()
	for k := uint64(0); k <= 220; k++ {
		s.Get(k)
	}
	s.Scan(0, 1<<63, 0)
	d := s.Rewind().Stats().Sub(before)
	if d.NTStores != 0 || d.CachedStores != 0 || d.Flushes != 0 || d.Fences != 0 || d.LineWrites != 0 {
		t.Fatalf("reads generated durable traffic: %+v", d)
	}
	if d.Loads == 0 {
		t.Fatal("reads charged no loads; the probe measured nothing")
	}
	commitsAfter := int64(0)
	for _, sh := range s.Rewind().ShardStats() {
		commitsAfter += sh.Commits
	}
	if commitsAfter != commitsBefore {
		t.Fatalf("reads committed transactions: %d -> %d", commitsBefore, commitsAfter)
	}
}

// TestSeqlockForcedRetry interleaves a deterministic "writer" between an
// optimistic read's traversal and its validation, via the test hook, and
// asserts the read retries and still returns the correct value.
func TestSeqlockForcedRetry(t *testing.T) {
	s := newKV(t, 1, false)
	if err := s.Put(1, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	sp := s.stripes[0]
	fired := 0
	optimisticReadHook = func() {
		if fired == 0 {
			fired++
			sp.seq.Add(1 << 32) // a whole writer passed between snapshot and validation
		}
	}
	defer func() { optimisticReadHook = nil }()
	before := s.readRetries.Load()
	if v, ok := s.Get(1); !ok || string(v) != "stable" {
		t.Fatalf("Get under forced retry = %q, %v", v, ok)
	}
	if got := s.readRetries.Load() - before; got != 1 {
		t.Fatalf("forced interleave produced %d retries, want exactly 1", got)
	}
	if s.readFallbacks.Load() != 0 {
		t.Fatal("single retry should not reach the latch fallback")
	}

	// Same forcing through the Scan path.
	fired = 0
	before = s.readRetries.Load()
	if pairs := s.Scan(0, 9, 0); len(pairs) != 1 || string(pairs[0].Value) != "stable" {
		t.Fatalf("Scan under forced retry = %v", pairs)
	}
	if got := s.readRetries.Load() - before; got != 1 {
		t.Fatalf("forced scan interleave produced %d retries, want exactly 1", got)
	}
}

// TestSeqlockFallback holds a stripe's write window open (seq odd, latch
// free) and asserts reads exhaust their optimistic budget, fall back to
// the latch, and still answer correctly — the bounded-latency guarantee.
func TestSeqlockFallback(t *testing.T) {
	s := newKV(t, 1, false)
	if err := s.Put(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	sp := s.stripes[0]
	sp.enterWrite() // stuck writer: window open, latch released
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, ok := s.Get(1); !ok || string(v) != "v" {
			t.Errorf("fallback Get = %q, %v", v, ok)
		}
		if pairs := s.Scan(0, 9, 0); len(pairs) != 1 {
			t.Errorf("fallback Scan = %v", pairs)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("read did not fall back to the latch under a stuck-odd seqlock")
	}
	sp.exitWrite()
	if fb := s.readFallbacks.Load(); fb != 2 {
		t.Fatalf("readFallbacks = %d, want 2 (one Get, one Scan)", fb)
	}
	if rr := s.readRetries.Load(); rr < int64(2*(readAttempts-1)) {
		t.Fatalf("readRetries = %d, want >= %d (budget exhausted twice)", rr, 2*(readAttempts-1))
	}
}

// TestReadPathStress races latch-free Get/Scan against Put/Delete/Batch
// and paced checkpoints, with -race in CI, asserting every read observes
// a committed record image: no torn values, no lost or resurrected keys,
// versions inside the linearization band their reader's window allows.
func TestReadPathStress(t *testing.T) {
	st, err := rewind.Open(rewind.Options{
		ArenaSize: 128 << 20, GroupCommit: true,
		GroupCommitWindow: 30 * time.Microsecond, GroupCommitMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 4, MaxValue: 32})
	if err != nil {
		t.Fatal(err)
	}

	const (
		verKeys   = 32 // [1, verKeys]: versioned overwrites, always present
		delKeys   = 16 // (verKeys, verKeys+delKeys]: put/delete cycles
		batchBase = 1000
		batchKeys = 32 // [batchBase, batchBase+batchKeys): batch churn
	)
	// value encodes (key, version) in each of its four words so any torn
	// mix of two writes is detectable.
	mkValue := func(key, ver uint64) []byte {
		v := make([]byte, 32)
		for i := 0; i < 4; i++ {
			binary.LittleEndian.PutUint64(v[i*8:], key<<24|ver)
		}
		return v
	}
	// checkValue returns the version, failing the test on a torn image.
	checkValue := func(key uint64, v []byte) uint64 {
		if len(v) != 32 {
			t.Errorf("key %d: value length %d", key, len(v))
			return 0
		}
		w0 := binary.LittleEndian.Uint64(v)
		for i := 1; i < 4; i++ {
			if w := binary.LittleEndian.Uint64(v[i*8:]); w != w0 {
				t.Errorf("key %d: TORN value: word0=%x word%d=%x", key, w0, i, w)
				return 0
			}
		}
		if w0>>24 != key {
			t.Errorf("key %d: value belongs to key %d", key, w0>>24)
		}
		return w0 & (1<<24 - 1)
	}

	var started, committed [verKeys + 1]atomic.Uint64
	// delState packs generation<<2 | state (0 absent-committed, 1
	// present-committed, 2 op-in-flight) in one word, so readers can prove
	// no transition overlapped their window.
	var delState [delKeys + 1]atomic.Uint64

	for k := uint64(1); k <= verKeys; k++ {
		started[k].Store(1)
		if err := s.Put(k, mkValue(k, 1)); err != nil {
			t.Fatal(err)
		}
		committed[k].Store(1)
	}

	// The run is bounded by WRITER progress, not wall time: every writer
	// performs a fixed op count and the readers spin (with periodic
	// yields, so a single-CPU host still schedules the writers) until the
	// last writer finishes. That guarantees the reads race a substantial
	// stream of mutations on any machine.
	writerOps := 400
	if testing.Short() {
		writerOps = 100
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	var wg sync.WaitGroup
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}

	// Versioned writers: two goroutines over disjoint halves so each key
	// has exactly one writer and versions are monotonic.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < writerOps; i++ {
				k := uint64(w*verKeys/2 + rng.Intn(verKeys/2) + 1)
				ver := started[k].Load() + 1
				started[k].Store(ver)
				fail(s.Put(k, mkValue(k, ver)))
				committed[k].Store(ver)
			}
		}(w)
	}

	// Delete cycler: put/delete each key in its range round-robin.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < writerOps; i++ {
			k := uint64(i%delKeys + 1)
			cur := delState[k].Load()
			gen := (cur>>2 + 1) << 2
			delState[k].Store(gen | 2)
			if cur&3 == 1 {
				_, err := s.Delete(verKeys + k)
				fail(err)
				delState[k].Store(gen | 0)
			} else {
				fail(s.Put(verKeys+k, mkValue(verKeys+k, cur>>2)))
				delState[k].Store(gen | 1)
			}
		}
	}()

	// Structural churn: grow-then-shrink waves of FRESH keys in a private
	// range, so inserts keep splitting leaves and deletes keep merging them
	// — the write path's structural (stripe-exclusive) tier races the
	// leaf-latched fast paths above and the readers below.
	writers.Add(1)
	go func() {
		defer writers.Done()
		const insBase, wave = 10_000, 64
		for i := 0; i < writerOps; i++ {
			k := uint64(insBase + (i/wave)*wave + i%wave)
			fail(s.Put(k, mkValue(k, 1)))
			if i%wave == wave-1 {
				// Tear the completed wave back down, odd keys first, so the
				// leaves underflow and rebalance.
				for j := 1; j < wave; j += 2 {
					_, err := s.Delete(uint64(insBase + (i/wave)*wave + j))
					fail(err)
				}
			}
		}
	}()

	// Batcher: all-or-none churn over its own range, alternating between
	// writing the whole range and deleting half of it.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < writerOps/8; i++ {
			var ops []Op
			for j := 0; j < batchKeys; j++ {
				k := uint64(batchBase + j)
				if i%2 == 1 && j%2 == 0 {
					ops = append(ops, Op{Key: k, Delete: true})
				} else {
					ops = append(ops, Op{Key: k, Value: mkValue(k, uint64(i))})
				}
			}
			fail(s.Batch(ops))
		}
	}()

	// Paced checkpoints: the freeze readers must never queue behind.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			s.Rewind().CheckpointPaced(128)
		}
	}()

	// Readers.
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%16 == 15 {
					// Let the writer goroutines schedule on small hosts; a
					// spinning reader pack on one CPU would starve them.
					time.Sleep(100 * time.Microsecond)
				}
				reads.Add(1)
				switch rng.Intn(3) {
				case 0: // versioned key: band check
					k := uint64(rng.Intn(verKeys) + 1)
					lo := committed[k].Load()
					v, ok := s.Get(k)
					hi := started[k].Load()
					if !ok {
						t.Errorf("versioned key %d LOST", k)
						continue
					}
					if ver := checkValue(k, v); ver < lo || ver > hi {
						t.Errorf("key %d: version %d outside committed band [%d, %d]", k, ver, lo, hi)
					}
				case 1: // delete-cycled key: lost/resurrection check
					k := uint64(rng.Intn(delKeys) + 1)
					w1 := delState[k].Load()
					v, ok := s.Get(verKeys + k)
					w2 := delState[k].Load()
					if ok {
						checkValue(verKeys+k, v)
					}
					if w1 == w2 { // no transition overlapped the read
						if w1&3 == 0 && ok {
							t.Errorf("deleted key %d RESURRECTED", verKeys+k)
						}
						if w1&3 == 1 && !ok {
							t.Errorf("committed key %d LOST", verKeys+k)
						}
					}
				case 2: // scan: ordering + per-image integrity
					from := uint64(rng.Intn(batchBase + batchKeys))
					pairs := s.Scan(from, from+64, 0)
					last := uint64(0)
					for _, p := range pairs {
						if p.Key < from || p.Key > from+64 {
							t.Errorf("scan [%d,%d] returned key %d", from, from+64, p.Key)
						}
						if p.Key <= last && last != 0 {
							t.Errorf("scan out of order: %d after %d", p.Key, last)
						}
						last = p.Key
						checkValue(p.Key, p.Value)
					}
				}
			}
		}(r)
	}

	writers.Wait()
	close(stop)
	wg.Wait()

	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("stress ran no reads")
	}
	st2 := s.Stats()
	if st2.Puts < int64(writerOps) || st2.Batches == 0 || st2.Deletes == 0 {
		t.Fatalf("stress write stream too thin to mean anything: %+v", st2)
	}
	// The mix must actually have exercised both write-path tiers: the
	// versioned writers repeat keys (overwrite fast path) and the
	// structural churn splits/merges leaves (stripe-exclusive tier).
	if st2.OverwriteFastPath == 0 {
		t.Fatal("stress ran no overwrite fast-path writes")
	}
	if st2.StripeLatchFallbacks == 0 {
		t.Fatal("stress ran no structural (stripe-exclusive) writes")
	}
	t.Logf("stress: %d reads, %d retries, %d fallbacks, %d puts, %d dels, %d batches, %d fast, %d latchwaits, %d structural",
		reads.Load(), st2.ReadRetries, st2.ReadFallbacks, st2.Puts, st2.Deletes, st2.Batches,
		st2.OverwriteFastPath, st2.LeafLatchWaits, st2.StripeLatchFallbacks)
}
