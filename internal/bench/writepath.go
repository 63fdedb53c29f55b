package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/kv"
)

// writePathWriters is the concurrent writer count of every writepath
// point — the contention the fine-grained write path exists to serve.
const writePathWriters = 8

// writePathKeys is the preloaded hot set the overwrite-heavy mix hits.
const writePathKeys = 256

// WritePath measures mixed-write scaling of the fine-grained write path
// (per-leaf latches + CAS overwrite fast path, DESIGN.md §8) against the
// stripe-serial baseline (kv.Config.SerialWrites): 8 concurrent writers,
// overwrite-heavy (98% existing keys) and insert-heavy (90% fresh keys)
// mixes, at 1/4/8 stripes on the simulated 5µs-fence device.
//
// The scoreboard runs on the virtual clock, not wall time (CI is a 1-CPU
// box): Y is committed ops per modeled device second, where the device
// bill is dominated by commit fences. The serial baseline holds each
// stripe's latch across the commit wait, so same-stripe writers cannot
// have commits in flight together and every commit buys its own flush +
// fence; the fine path releases every latch at commit publish, so the 8
// writers' ENDs gather into shared group-commit rounds and one fence
// covers a whole round. The fence/op series make that mechanism directly
// visible — fine-path fences per op collapsing well below 1 is the
// device-counter proof that latch-hold spans exclude the commit wait —
// and the fastpath%% series reports the CAS-overwrite hit ratio.
func WritePath(scale Scale) Figure {
	opsPerWriter := scale.pick(120, 1200)
	fig := Figure{
		ID: "writepath", Title: "Mixed-write scaling: fine-grained write path vs stripe-serial",
		XLabel: "stripes", YLabel: "kops per modeled second",
		Notes: fmt.Sprintf("%d concurrent writers, %v fence; ow = 98%% overwrites, ins = 90%% fresh inserts; fastpath%% and fence/op series carry their own units",
			writePathWriters, serverFenceLatency),
	}
	type line struct {
		name, fence string // the rate series and its fences-per-op companion
		serial      bool
		insert      bool
	}
	lines := []line{
		{"fine ow", "fence/op ow fine", false, false},
		{"serial ow", "fence/op ow serial", true, false},
		{"fine ins", "fence/op ins fine", false, true},
		{"serial ins", "fence/op ins serial", true, true},
	}
	series := make([]Series, len(lines))
	fences := make([]Series, len(lines))
	var hitPts []Point
	for i, l := range lines {
		series[i].Name = l.name
		fences[i].Name = l.fence
		for _, stripes := range []int{1, 4, 8} {
			r := writePathPoint(l.serial, l.insert, stripes, opsPerWriter)
			series[i].Points = append(series[i].Points,
				Point{X: float64(stripes), Y: float64(r.ops) / r.simSec / 1e3})
			fences[i].Points = append(fences[i].Points, Point{X: float64(stripes), Y: r.fencesPerOp})
			if !l.insert && !l.serial {
				hitPts = append(hitPts, Point{X: float64(stripes), Y: r.hitRatio * 100})
			}
		}
	}
	fig.Series = append(fig.Series, series...)
	fig.Series = append(fig.Series, Series{Name: "fastpath% ow", Points: hitPts})
	fig.Series = append(fig.Series, fences...)
	return fig
}

// writePathResult is one measured configuration.
type writePathResult struct {
	ops         int
	simSec      float64 // modeled device seconds over the measured window
	hitRatio    float64 // overwrite fast-path hits / puts
	fencesPerOp float64
}

// writePathPoint drives writePathWriters concurrent goroutines of Puts
// against a fresh store and reads the bill off the device counters.
func writePathPoint(serial, insertHeavy bool, stripes, opsPerWriter int) writePathResult {
	st, err := rewind.Open(rewind.Options{
		ArenaSize:         1 << 26,
		GroupCommit:       true,
		GroupCommitWindow: 300 * time.Microsecond,
		GroupCommitMax:    64,
		FenceLatency:      serverFenceLatency,
		DisableTracking:   true,
	})
	if err != nil {
		panic(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: stripes, MaxValue: 16, SerialWrites: serial})
	if err != nil {
		panic(err)
	}
	// Preload the hot set outside the measured window.
	for k := uint64(1); k <= writePathKeys; k++ {
		if err := kvs.Put(k, []byte{byte(k), 0xaa}); err != nil {
			panic(err)
		}
	}

	before := st.Stats()
	kvBefore := kvs.Stats()
	var wg sync.WaitGroup
	for w := 0; w < writePathWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			val := []byte{byte(w), 0xbb}
			for i := 0; i < opsPerWriter; i++ {
				var k uint64
				fresh := uint64(100_000 + w*opsPerWriter + i)
				if insertHeavy {
					// 90% fresh keys: leaf inserts, splits, the works.
					if k = fresh; rng.Intn(10) == 0 {
						k = uint64(rng.Intn(writePathKeys)) + 1
					}
				} else {
					// 98% hot-set overwrites.
					if k = uint64(rng.Intn(writePathKeys)) + 1; rng.Intn(50) == 0 {
						k = fresh
					}
				}
				if err := kvs.Put(k, val); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()

	d := st.Stats().Sub(before)
	kvd := kvs.Stats()
	ops := writePathWriters * opsPerWriter
	return writePathResult{
		ops:         ops,
		simSec:      simSeconds(d),
		hitRatio:    float64(kvd.OverwriteFastPath-kvBefore.OverwriteFastPath) / float64(kvd.Puts-kvBefore.Puts),
		fencesPerOp: float64(d.Fences) / float64(ops),
	}
}
