package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// equivArena sizes the harness device; images are full-arena copies, so it
// stays small.
const equivArena = 8 << 20

// equivConfigs are the configurations the differential harness sweeps: the
// headline NoForce/Batch regime (three-phase recovery, whose redo pass is
// the parallel path under test) and Force/Optimized (two-phase recovery,
// durable data, commit-time clearing) — each in both commit modes, since
// redo-only recovery takes its own plan (winners-only redo, no undo) whose
// parallel runs must agree with the sequential one just the same.
func equivConfigs(shards int) []Config {
	var out []Config
	for _, mode := range []CommitMode{UndoRedo, RedoOnly} {
		out = append(out,
			Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, CommitMode: mode, BucketSize: 16, GroupSize: 4, LogShards: shards, RootBase: rootBase},
			Config{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, CommitMode: mode, BucketSize: 16, LogShards: shards, RootBase: rootBase},
		)
	}
	return out
}

// equivWorkload drives one seeded randomized workload: transactions of
// mixed single-word writes, multi-word spans (some with ragged tails),
// deferred deletes and rollbacks, with some transactions left in flight.
// All writes land in one shared region, so unrelated transactions — which
// sequential ids stripe across every shard — routinely update the same
// words and cache lines: exactly the cross-shard interleavings whose redo
// order the parallel recovery must get right. It is single-goroutine and
// rng-driven, hence bit-deterministic for a given seed.
func equivWorkload(t *testing.T, a *pmem.Allocator, tm *TM, rng *rand.Rand, region uint64, regionWords int) {
	t.Helper()
	const txns = 36
	open := make([]*Txn, 0, 4)
	for i := 0; i < txns; i++ {
		x := tm.Begin()
		for o, nops := 0, 1+rng.Intn(5); o < nops; o++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // single word
				off := uint64(rng.Intn(regionWords))
				if err := x.Write64(region+off*8, rng.Uint64()); err != nil {
					t.Fatal(err)
				}
			case 5, 6, 7, 8: // span, occasionally with a ragged tail
				w := 2 + rng.Intn(8)
				off := uint64(rng.Intn(regionWords - w))
				p := make([]byte, w*8-rng.Intn(8))
				rng.Read(p)
				if err := x.WriteBytes(region+off*8, p); err != nil {
					t.Fatal(err)
				}
			case 9: // deferred deallocation
				if err := x.Free(a.Alloc(64)); err != nil {
					t.Fatal(err)
				}
			}
		}
		switch rng.Intn(10) {
		case 0, 1:
			if err := x.Rollback(); err != nil {
				t.Fatal(err)
			}
		case 2, 3:
			open = append(open, x) // left running: a loser for recovery
		default:
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = open
}

// equivRecover restores img into a fresh device and recovers it with a
// w-worker pool, returning the post-recovery durable image and the
// recovery report.
func equivRecover(t *testing.T, cfg Config, img []byte, w int) ([]byte, *RecoveryStats) {
	t.Helper()
	mem := nvm.New(nvm.Config{Size: equivArena, TrackPersistence: true})
	if err := mem.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	a, err := pmem.Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecoveryWorkers = w
	_, rs, err := Open(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mem.PersistentImage()
	if err != nil {
		t.Fatal(err)
	}
	return out, rs
}

// firstDiff locates the first differing word of two equal-length images,
// for failure messages that point at the damage.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i+8 <= n; i += 8 {
		if !bytes.Equal(a[i:i+8], b[i:i+8]) {
			return fmt.Sprintf("first difference at image offset %#x: %x vs %x", i, a[i:i+8], b[i:i+8])
		}
	}
	return fmt.Sprintf("images differ in length: %d vs %d", len(a), len(b))
}

// TestRecoveryCrashEquivalence is the differential harness gating parallel
// recovery: a seeded generator runs the same randomized workload to a
// crash point, then the same crash image is recovered twice — sequentially
// (workers=1) and in parallel (workers=4 and 8) — and the resulting
// durable state must be byte-identical, with identical
// Winners/LosersAborted/Redone/Undone tallies. Crash points are swept
// through the workload (a third, two thirds, the tail, and a plain power
// cut at the end), so torn commits, torn rollbacks and half-flushed Batch
// groups all appear in the images. Under -short the matrix is strided like
// the other crash matrices.
func TestRecoveryCrashEquivalence(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 3
	}
	for si, shards := range []int{1, 4, 8} {
		for ci, cfg := range equivConfigs(shards) {
			// The stride position is derived from the loop coordinates, not
			// a shared counter: subtests run in parallel, and the -short
			// subset must be the same on every run.
			caseBase := (si*4 + ci) * 4 * 4
			cfg := cfg
			t.Run(cfg.String(), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					// Dry run: count the workload's durable operations so
					// crash points can be placed at fractions of it.
					mem := nvm.New(nvm.Config{Size: equivArena, TrackPersistence: true})
					a := pmem.Format(mem)
					tm, err := New(a, cfg)
					if err != nil {
						t.Fatal(err)
					}
					const regionWords = 256
					region := dataBlock(a, regionWords, 7)
					before := mem.Stats()
					equivWorkload(t, a, tm, rand.New(rand.NewSource(seed)), region, regionWords)
					st := mem.Stats()
					durableOps := int((st.NTStores + st.Flushes + st.Fences) -
						(before.NTStores + before.Flushes + before.Fences))

					for pi, crashAt := range []int{durableOps / 3, 2 * durableOps / 3, durableOps - 1, 0} {
						caseIdx := caseBase + int(seed-1)*4 + pi
						if caseIdx%stride != 0 && crashAt != 0 {
							continue
						}
						name := fmt.Sprintf("seed=%d/crashAt=%d", seed, crashAt)
						mem := nvm.New(nvm.Config{Size: equivArena, TrackPersistence: true})
						a := pmem.Format(mem)
						tm, err := New(a, cfg)
						if err != nil {
							t.Fatal(err)
						}
						region := dataBlock(a, regionWords, 7)
						rng := rand.New(rand.NewSource(seed))
						if crashAt > 0 {
							mem.SetCrashAfter(crashAt)
							if !mem.RunToCrash(func() { equivWorkload(t, a, tm, rng, region, regionWords) }) {
								t.Fatalf("%s: workload survived its crash point", name)
							}
						} else {
							// Power cut at the end, in-flight losers intact.
							equivWorkload(t, a, tm, rng, region, regionWords)
							if err := mem.Crash(); err != nil {
								t.Fatal(err)
							}
						}
						img, err := mem.PersistentImage()
						if err != nil {
							t.Fatal(err)
						}

						baseImg, baseRS := equivRecover(t, cfg, img, 1)
						if cfg.CommitMode == RedoOnly {
							// The mode's whole point: recovery performs zero
							// undo work — no before-images restored, no CLRs
							// in the scanned log — at any crash point.
							if baseRS.Undone != 0 || baseRS.CLRRecords != 0 {
								t.Fatalf("%s: redo-only recovery did undo work: Undone=%d CLRRecords=%d",
									name, baseRS.Undone, baseRS.CLRRecords)
							}
						}
						for _, w := range []int{4, 8} {
							gotImg, gotRS := equivRecover(t, cfg, img, w)
							if !bytes.Equal(baseImg, gotImg) {
								t.Fatalf("%s: %d-worker recovery diverges from sequential: %s",
									name, w, firstDiff(baseImg, gotImg))
							}
							if gotRS.Winners != baseRS.Winners || gotRS.LosersAborted != baseRS.LosersAborted {
								t.Fatalf("%s: workers=%d saw %d winners / %d losers, sequential saw %d / %d",
									name, w, gotRS.Winners, gotRS.LosersAborted, baseRS.Winners, baseRS.LosersAborted)
							}
							if gotRS.Redone != baseRS.Redone || gotRS.Undone != baseRS.Undone ||
								gotRS.CLRRecords != baseRS.CLRRecords ||
								gotRS.RecordsScanned != baseRS.RecordsScanned || gotRS.MaxLSN != baseRS.MaxLSN {
								t.Fatalf("%s: workers=%d phase tallies diverge: %+v vs %+v", name, w, gotRS, baseRS)
							}
							if w <= shards && shards > 1 && gotRS.Workers != w {
								t.Fatalf("%s: pool ran %d workers, want %d", name, gotRS.Workers, w)
							}
						}
					}
				}
			})
		}
	}
}
