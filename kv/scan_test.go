package kv

// Tests and ledger rows for the two-pass Scan (DESIGN.md §6): what a read
// bills the device, and that pass 2 never copies through an address a
// writer moved after pass 1 collected it.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/nvm"
)

// The read-path ledger store: the daemon's default shape (8 stripes,
// MaxValue 512) holding 40 000 keys with 100-byte values, and a 60 ns
// charge per word load so simNs/op prices the loads. Built once and only
// read.
var (
	readOnce  sync.Once
	readStore *Store
)

const readKeys = 40_000

func readSetup(tb testing.TB) *Store {
	readOnce.Do(func() {
		st, err := rewind.Open(rewind.Options{
			ArenaSize: 128 << 20, DisableTracking: true, ReadLatency: 60 * time.Nanosecond,
		})
		if err != nil {
			tb.Fatal(err)
		}
		s, err := Create(st, Config{})
		if err != nil {
			tb.Fatal(err)
		}
		ops := make([]Op, 0, 1000)
		for k := uint64(0); k < readKeys; k++ {
			ops = append(ops, Op{Key: k, Value: patterned(100, byte(k))})
			if len(ops) == cap(ops) {
				if err := s.Batch(ops); err != nil {
					tb.Fatal(err)
				}
				ops = ops[:0]
				st.Checkpoint()
			}
		}
		readStore = s
	})
	if readStore == nil {
		tb.Fatal("read-path store set-up failed")
	}
	return readStore
}

// TestScanDeviceLoads gates what a short SCAN bills the device: a 10-pair
// scan of the ledger store loads each stripe's keys and addresses, then
// only the ten winners' values — not ten values from every stripe.
func TestScanDeviceLoads(t *testing.T) {
	s := readSetup(t)
	rng := rand.New(rand.NewSource(1))
	const scans = 100
	before := s.Rewind().Stats()
	for i := 0; i < scans; i++ {
		from := uint64(rng.Intn(readKeys))
		pairs := s.Scan(from, math.MaxUint64, 10)
		if len(pairs) != min(10, readKeys-int(from)) || pairs[0].Key != from {
			t.Fatalf("Scan(%d, max, 10) = %d pairs", from, len(pairs))
		}
	}
	loads := float64(s.Rewind().Stats().Sub(before).Loads) / scans
	t.Logf("%.1f device loads per 10-pair scan", loads)
	if loads > 450 {
		t.Fatalf("a 10-pair scan loads %.1f words, want <= 450", loads)
	}
}

// TestScanRevalidatesBetweenPasses writes to a winner's stripe between the
// passes — an overwrite with a new length, a delete whose slot an insert
// reuses, and a split of the winner's leaf — and asserts the scan returns
// the stripe as it was before or after the write, never a mix, after
// exactly one retry.
func TestScanRevalidatesBetweenPasses(t *testing.T) {
	// Stripe 0 holds the multiples of 4, stripe 1 the keys 4k+1; the
	// scans below take their winners from both.
	const from, to, limit = 40, 1 << 20, 8
	cases := []struct {
		name  string
		write func(t *testing.T, s *Store)
	}{
		{"overwrite", func(t *testing.T, s *Store) {
			if err := s.Put(44, []byte("a much longer value than before")); err != nil {
				t.Fatal(err)
			}
		}},
		{"slot-reuse", func(t *testing.T, s *Store) {
			sp := s.stripes[0]
			addr, _ := sp.tree.SeekRecord(44)
			if _, err := s.Delete(44); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(46, []byte("reused")); err != nil {
				t.Fatal(err)
			}
			if got, _ := sp.tree.SeekRecord(46); got != addr {
				t.Fatalf("key 46 landed at %#x, not in 44's slot %#x", got, addr)
			}
		}},
		{"split", func(t *testing.T, s *Store) {
			sp := s.stripes[0]
			leaf := sp.tree.SeekLeafNode(44)
			addr, _ := sp.tree.SeekRecord(44)
			for k := uint64(38); sp.tree.SeekLeafNode(44) == leaf; k -= 4 {
				if err := s.Put(k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			if got, _ := sp.tree.SeekRecord(44); got == addr {
				t.Fatal("the split left key 44 in place")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newKV(t, 2, false)
			for k := uint64(0); k < 40; k++ {
				if err := s.Put(40+k*4, patterned(8+int(k%5), byte(k))); err != nil {
					t.Fatal(err)
				}
				if err := s.Put(41+k*4, patterned(8, byte(k+100))); err != nil {
					t.Fatal(err)
				}
			}
			before := s.Scan(from, to, limit)
			fired := false
			scanPassHook = func() {
				if !fired {
					fired = true
					tc.write(t, s)
				}
			}
			defer func() { scanPassHook = nil }()
			retries := s.readRetries.Load()
			got := s.Scan(from, to, limit)
			scanPassHook = nil
			if n := s.readRetries.Load() - retries; n != 1 {
				t.Errorf("scan retried %d times, want exactly 1", n)
			}
			after := s.Scan(from, to, limit)
			if !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
				t.Fatalf("scan mixed two states:\n got    %v\n before %v\n after  %v", got, before, after)
			}
		})
	}
}

// TestScanFallsBackToLatches: writes that discard every optimistic attempt
// cost a scan readAttempts retries and then one latched run, which answers
// with the current state — whether a writer lands between the passes of
// every attempt, or a storm on one stripe also lands after each of its
// walks: the scan's attempt loop is the only retry level and the latched
// scan its only fallback.
func TestScanFallsBackToLatches(t *testing.T) {
	cases := []struct {
		name  string
		hooks func(t *testing.T, s *Store) (afterWalk, betweenPasses func())
	}{
		{"between-passes", func(t *testing.T, s *Store) (func(), func()) {
			n := 0
			return nil, func() {
				if n++; n > readAttempts {
					return // the latched scan: key 3's latch is the scan's own
				}
				if err := s.Put(3, []byte{byte(n), 0, 0}); err != nil {
					t.Error(err)
				}
			}
		}},
		{"storm", func(t *testing.T, s *Store) (func(), func()) {
			storm := func() { s.stripes[1].seq.Add(1 << 32) } // a whole writer passed
			return storm, storm
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newKV(t, 2, false)
			for k := uint64(0); k < 20; k++ {
				if err := s.Put(k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			optimisticReadHook, scanPassHook = tc.hooks(t, s)
			defer func() { optimisticReadHook, scanPassHook = nil, nil }()
			retries, fallbacks := s.readRetries.Load(), s.readFallbacks.Load()
			got := s.Scan(0, 9, 5)
			optimisticReadHook, scanPassHook = nil, nil
			if d := s.readRetries.Load() - retries; d != readAttempts {
				t.Errorf("scan retried %d times, want %d", d, readAttempts)
			}
			if d := s.readFallbacks.Load() - fallbacks; d != 1 {
				t.Errorf("scan fell back %d times, want 1", d)
			}
			if want := s.Scan(0, 9, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("latched scan = %v, want %v", got, want)
			}
		})
	}
}

// TestScanLatchedHoldsOnlyWinners: by pass 2 a latched scan holds the
// latches of exactly the stripes its answer comes from. A stripe whose walk
// found nothing is released, and so is one whose only winner a later
// stripe pushed out.
func TestScanLatchedHoldsOnlyWinners(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 2, MaxValue: 64, ExclusiveReads: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 20; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { scanPassHook = nil }()
	// Scan(0, 9, 1): stripe 0 answers 0, stripe 1's walk of [0, 0] is empty.
	// Scan(1, 9, 1): stripe 0's 2 is pushed out by stripe 1's 1.
	for from, holder := range []int{0, 1} {
		scanPassHook = func() {
			for i, sp := range s.stripes {
				free := sp.wmu.TryLock()
				if free {
					sp.wmu.Unlock()
				}
				if free == (i == holder) {
					t.Errorf("Scan(%d, 9, 1): stripe %d latch free = %v", from, i, free)
				}
			}
		}
		if got := s.Scan(uint64(from), 9, 1); len(got) != 1 || got[0].Key != uint64(from) {
			t.Fatalf("Scan(%d, 9, 1) = %v", from, got)
		}
	}
}

// BenchmarkGet is the kv GET row of the cost ledger: one latch-free point
// read of the ledger store (loads/op, simNs/op, and -benchmem's B/op and
// allocs/op).
func BenchmarkGet(b *testing.B) {
	s := readSetup(b)
	rng := rand.New(rand.NewSource(1))
	before := s.Rewind().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(uint64(rng.Intn(readKeys))); !ok {
			b.Fatal("key missing")
		}
	}
	b.StopTimer()
	reportReadBill(b, s.Rewind().Stats().Sub(before))
}

// BenchmarkScan is the kv SCAN row: a scan of limit pairs from a random
// start key.
func BenchmarkScan(b *testing.B) {
	for _, limit := range []int{10} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			s := readSetup(b)
			rng := rand.New(rand.NewSource(1))
			before := s.Rewind().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(s.Scan(uint64(rng.Intn(readKeys)), math.MaxUint64, limit)) == 0 {
					b.Fatal("empty scan")
				}
			}
			b.StopTimer()
			reportReadBill(b, s.Rewind().Stats().Sub(before))
		})
	}
}

// BenchmarkScanWhileWriting runs 10-pair scans, paced at one every
// scanPeriod so that two builds compare at the same scan rate, while two
// writers overwrite random keys of every stripe. It reports what the writes
// cost the scans (retries/scan, fallbacks/scan, scanNs/op: a scan's mean
// wall time) and what the scans cost the writers (puts/s).
func BenchmarkScanWhileWriting(b *testing.B) {
	st, err := rewind.Open(rewind.Options{
		ArenaSize: 128 << 20, GroupCommit: true,
		GroupCommitWindow: 30 * time.Microsecond, GroupCommitMax: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Create(st, Config{})
	if err != nil {
		b.Fatal(err)
	}
	const keys = 8000
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, patterned(100, byte(k))); err != nil {
			b.Fatal(err)
		}
	}
	st.Checkpoint()
	var puts atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keys))
				if err := s.Put(k, patterned(100, byte(i))); err != nil {
					b.Error(err)
					return
				}
				puts.Add(1)
				if w == 0 && i%2000 == 0 {
					st.Checkpoint()
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(1))
	before := s.Stats()
	p0 := puts.Load()
	const scanPeriod = 250 * time.Microsecond
	var scanning time.Duration
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		s.Scan(uint64(rng.Intn(keys)), math.MaxUint64, 10)
		scanning += time.Since(t0)
		if d := time.Until(start.Add(time.Duration(i+1) * scanPeriod)); d > 0 {
			time.Sleep(d)
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	p := puts.Load() - p0
	close(stop)
	wg.Wait()
	d := s.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(d.ReadRetries-before.ReadRetries)/n, "retries/scan")
	b.ReportMetric(float64(d.ReadFallbacks-before.ReadFallbacks)/n, "fallbacks/scan")
	b.ReportMetric(float64(p)/elapsed.Seconds(), "puts/s")
	b.ReportMetric(float64(scanning.Nanoseconds())/n, "scanNs/op")
}

// reportReadBill reports a read benchmark's device bill per op.
func reportReadBill(b *testing.B, d nvm.Stats) {
	n := float64(b.N)
	b.ReportMetric(float64(d.Loads)/n, "loads/op")
	b.ReportMetric(float64(d.SimulatedNS)/n, "simNs/op")
}
