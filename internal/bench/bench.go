// Package bench regenerates every figure of the paper's evaluation (§5).
// Each figure has a runner returning a Figure (labelled series of points)
// that cmd/rewind-bench prints and bench_test.go wraps in testing.B
// benchmarks. EXPERIMENTS.md records measured-vs-paper for each.
//
// Measurement modes: single-threaded cost figures run on the simulator's
// deterministic virtual clock (charged NVM writes and fences); figures
// whose effect is CPU-bound scanning or genuine parallelism (4, 5, 9, 11)
// run wall-clock with latency emulation, as the paper's testbed did.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/core"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// Point is one measurement. The JSON tags feed rewind-bench's -json
// output (BENCH_rewind.json), which tracks the perf trajectory across PRs.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one labelled line of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
	Notes  string   `json:"notes,omitempty"`
}

// Print renders the figure as an aligned table, one row per X value.
func (f Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if f.Notes != "" {
		fmt.Fprintf(w, "   (%s)\n", f.Notes)
	}
	// Collect the X axis across series.
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	fmt.Fprintf(w, "%-24s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%16s", s.Name)
	}
	fmt.Fprintf(w, "    [%s]\n", f.YLabel)
	for _, x := range xs {
		fmt.Fprintf(w, "%-24.4g", x)
		for _, s := range f.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(w, "%16.4g", y)
			} else {
				fmt.Fprintf(w, "%16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Scale selects experiment sizes. Quick regenerates every figure's shape in
// seconds; Full approaches the paper's sizes (minutes).
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// Runner produces one figure.
type Runner struct {
	ID    string
	Title string
	Run   func(Scale) Figure
}

// Runners lists every figure runner in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig3a", "Logging overhead vs update intensity", Fig3a},
		{"fig3b", "Logging overhead vs skip records", Fig3b},
		{"fig4a", "Single-transaction rollback vs skip records", Fig4a},
		{"fig4b", "Recovery duration vs skip records", Fig4b},
		{"fig5", "Logging+recovery cost vs fraction recovered", Fig5},
		{"fig6", "Checkpoint overhead vs frequency", Fig6},
		{"fig7a", "B+-tree logging: REWIND vs DRAM/NVM", Fig7a},
		{"fig7b", "B+-tree logging: REWIND vs comparators", Fig7b},
		{"fig8a", "B+-tree rollback, single transaction", Fig8a},
		{"fig8b", "B+-tree recovery, multiple transactions", Fig8b},
		{"fig9", "Multithreaded B+-tree logging", Fig9},
		{"fig10", "Memory fence sensitivity", Fig10},
		{"fig11", "TPC-C new-order throughput", Fig11},
		{"shards", "Sharded-log commit throughput", ShardScaling},
		{"span", "Span-record vs per-word logging", SpanLogging},
		{"server", "rewindd group-commit throughput", ServerThroughput},
		{"pipeline", "One connection: throughput vs pipeline depth", Pipeline},
		{"recovery", "Parallel recovery scaling", RecoveryScaling},
		{"readpath", "Latch-free GET/SCAN read path", ReadPath},
		{"logfootprint", "Log footprint: undo/redo vs redo-only", LogFootprint},
		{"writepath", "Fine-grained write path scaling", WritePath},
		{"obs", "Observability overhead", ObsOverhead},
		{"ycsb", "YCSB A-F over the wire", YCSB},
		{"tpccnet", "TPC-C New-Order over the wire", TPCCNet},
		{"capacity", "Arena growth and space reclamation", Capacity},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- shared helpers ---

// simSeconds converts a virtual-clock delta to seconds.
func simSeconds(d nvm.Stats) float64 { return float64(d.SimulatedNS) / 1e9 }

// scanReadLatency is the DRAM-like per-load cost the scan- and read-bound
// figures charge so that CPU-side memory traffic appears on the virtual
// clock (see nvm.Config). 60ns approximates a random DRAM access on the
// paper's testbed.
const scanReadLatency = 60 * time.Nanosecond

// newEnv builds a raw manager environment (no public Store) for the
// microbenchmarks that drive internal/core directly.
func newEnv(arena int, cfg core.Config, readLat time.Duration) (*nvm.Memory, *pmem.Allocator, *core.TM) {
	mem := nvm.New(nvm.Config{Size: arena, ReadLatency: readLat})
	a := pmem.Format(mem)
	tm, err := core.New(a, cfg)
	if err != nil {
		panic(err)
	}
	return mem, a, tm
}

// reopenEnv crashes the device and reopens the manager with recovery.
func reopenEnv(mem *nvm.Memory, cfg core.Config) *core.TM {
	a, err := pmem.Open(mem)
	if err != nil {
		panic(err)
	}
	tm, _, err := core.Open(a, cfg)
	if err != nil {
		panic(err)
	}
	return tm
}

// fourConfigs returns the paper's four configurations (§2), with the
// optimized log underneath as in §5.1.
func fourConfigs() []core.Config {
	mk := func(p core.Policy, l core.Layers) core.Config {
		return core.Config{Policy: p, Layers: l, LogKind: rlog.Optimized, RootBase: 8}
	}
	return []core.Config{
		mk(core.Force, core.TwoLayer),   // 2L-FP
		mk(core.NoForce, core.TwoLayer), // 2L-NFP
		mk(core.Force, core.OneLayer),   // 1L-FP
		mk(core.NoForce, core.OneLayer), // 1L-NFP
	}
}

// storeOpts builds public-API options for the B+-tree figures. Tree
// descents are read traffic shared by every persistence regime, so the
// DRAM-like read cost is charged here too — without it the shared CPU work
// would vanish from the virtual clock and inflate REWIND's relative
// overhead far beyond the paper's.
func storeOpts(kind rewind.LogKind, policy rewind.Policy, arena int, emulate bool) rewind.Options {
	return rewind.Options{
		ArenaSize:       arena,
		Policy:          policy,
		LogKind:         kind,
		ReadLatency:     scanReadLatency,
		EmulateLatency:  emulate,
		DisableTracking: true, // throughput measurements need no crash shadow
	}
}

// elapsed runs fn and returns wall-clock seconds (emulated-latency mode).
func elapsed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}
