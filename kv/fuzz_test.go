package kv

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"github.com/rewind-db/rewind"
)

// The fuzz store is built once and only ever read: SCAN takes no locks the
// fuzzer could tear, and sharing it keeps each fuzz iteration at
// microseconds instead of a full store bootstrap.
var (
	fuzzOnce   sync.Once
	fuzzStore  *Store
	fuzzKeys   map[uint64][]byte
	fuzzSorted []uint64 // fuzzKeys' keys, ascending
)

// fuzzValue derives a small deterministic value from a key.
func fuzzValue(k uint64) []byte {
	v := make([]byte, 1+int(k%29))
	for i := range v {
		v[i] = byte(k>>uint(8*(i%8))) + byte(i)
	}
	return v
}

func fuzzSetup(tb testing.TB) {
	fuzzOnce.Do(func() {
		st, err := rewind.Open(rewind.Options{ArenaSize: 32 << 20, DisableTracking: true})
		if err != nil {
			tb.Fatal(err)
		}
		s, err := Create(st, Config{Stripes: 5, MaxValue: 64})
		if err != nil {
			tb.Fatal(err)
		}
		fuzzKeys = map[uint64][]byte{}
		// A spread of keys: dense low range, stripe-aligned runs, and the
		// extremes of the keyspace, so from/to comparisons are exercised
		// against boundaries in every stripe.
		keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 1<<32 - 1, 1 << 32, 1<<64 - 2, 1<<64 - 1}
		for i := uint64(0); i < 160; i++ {
			keys = append(keys, i*i*2654435761%100_000)
		}
		for _, k := range keys {
			v := fuzzValue(k)
			if err := s.Put(k, v); err != nil {
				tb.Fatal(err)
			}
			fuzzKeys[k] = v
		}
		for k := range fuzzKeys {
			fuzzSorted = append(fuzzSorted, k)
		}
		sort.Slice(fuzzSorted, func(i, j int) bool { return fuzzSorted[i] < fuzzSorted[j] })
		fuzzStore = s
	})
}

// FuzzScanRange drives SCAN range handling with arbitrary [from, to] bounds
// and limits — including inverted, empty, single-key and whole-keyspace
// ranges. Properties held: no panics, and exactly the first min(limit, n)
// of the range's n stored keys, ascending, each with its stored value
// (every key when limit <= 0) — so a merge that kept the wrong subset of
// the stripes' keys fails, not only one that kept too many.
func FuzzScanRange(f *testing.F) {
	f.Add(uint64(0), uint64(1<<64-1), 0)
	f.Add(uint64(0), uint64(0), 1)
	f.Add(uint64(5), uint64(5), 10)
	f.Add(uint64(100), uint64(2), 7) // inverted: must be empty
	f.Add(uint64(63), uint64(65), 2)
	f.Add(uint64(1), uint64(99_999), -3)
	f.Add(uint64(1<<64-2), uint64(1<<64-1), 1000)
	// Limits that cut across the stripes: one key, ten, and more than the
	// store holds.
	f.Add(uint64(0), uint64(1<<64-1), 1)
	f.Add(uint64(7), uint64(1<<64-1), 1)
	f.Add(uint64(0), uint64(1<<64-1), 10)
	f.Add(uint64(1000), uint64(90_000), 10)
	f.Add(uint64(0), uint64(1<<64-1), 2000)
	f.Add(uint64(50), uint64(1<<40), 2000)
	f.Fuzz(func(t *testing.T, from, to uint64, limit int) {
		fuzzSetup(t)
		pairs := fuzzStore.Scan(from, to, limit)

		var want []uint64
		for _, k := range fuzzSorted {
			if k >= from && k <= to && (limit <= 0 || len(want) < limit) {
				want = append(want, k)
			}
		}
		if len(pairs) != len(want) {
			t.Fatalf("scan(%d,%d,%d) returned %d pairs, want %d", from, to, limit, len(pairs), len(want))
		}
		for i, p := range pairs {
			if p.Key != want[i] {
				t.Fatalf("scan(%d,%d,%d) pair %d has key %d, want %d", from, to, limit, i, p.Key, want[i])
			}
			if !bytes.Equal(p.Value, fuzzKeys[p.Key]) {
				t.Fatalf("key %d: value %x, want %x", p.Key, p.Value, fuzzKeys[p.Key])
			}
		}
	})
}
