package nvm

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// crashReference is the revert Crash did before it walked the dirty bitmap:
// every word of the arena taken from the durable image, zero beyond the
// durable view. It returns what the cache-visible words must hold after a
// crash.
func crashReference(m *Memory) []uint64 {
	want := make([]uint64, len(m.words))
	copy(want, m.persistWords())
	return want
}

// TestCrashMatchesFullScanRevert drives seeded random sequences of cached and
// non-temporal stores, flushes, budgeted flushes, fences, grows and hole
// punches, crashes after each, and holds the dirty-line revert to the
// full-scan reference word for word, on a heap device and a file-backed one.
func TestCrashMatchesFullScanRevert(t *testing.T) {
	const size, maxSize = 64 << 10, 256 << 10
	for _, backed := range []bool{false, true} {
		t.Run(fmt.Sprintf("backed=%v", backed), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				m := New(Config{Size: size, MaxSize: maxSize, TrackPersistence: true})
				if backed {
					var err error
					if m, _, err = OpenFile(Config{Size: size, MaxSize: maxSize}, filepath.Join(t.TempDir(), "arena.nvm")); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 4; round++ {
					for op := 0; op < 400; op++ {
						addr := uint64(rng.Intn(m.Size()/WordSize)) * WordSize
						switch rng.Intn(12) {
						case 0, 1, 2, 3, 4:
							m.Store64(addr, rng.Uint64())
						case 5:
							m.StoreNT64(addr, rng.Uint64())
						case 6, 7:
							m.Flush(addr)
						case 8:
							m.FlushDirtyLimit(rng.Intn(4))
						case 9:
							m.Fence()
						case 10:
							if rng.Intn(8) == 0 {
								if _, err := m.Grow(pageSize); err != nil && err != ErrArenaCap {
									t.Fatal(err)
								}
							}
						case 11:
							if rng.Intn(4) == 0 {
								if err := m.PunchHole(addr&^(pageSize-1), pageSize); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					want := crashReference(m)
					if err := m.Crash(); err != nil {
						t.Fatal(err)
					}
					for w := range want {
						if m.words[w] != want[w] {
							t.Fatalf("seed %d round %d: word %#x = %#x after Crash, the full-scan revert gives %#x",
								seed, round, w*WordSize, m.words[w], want[w])
						}
					}
					for bi, set := range m.dirty {
						if set != 0 {
							t.Fatalf("seed %d round %d: dirty bitmap word %d = %#x after Crash", seed, round, bi, set)
						}
					}
					if n := m.DirtyLineCount(); n != 0 {
						t.Fatalf("seed %d round %d: %d dirty lines counted after Crash", seed, round, n)
					}
				}
				if err := m.CloseFile(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
