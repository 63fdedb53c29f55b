package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// The smoke test re-execs the test binary as the daemon child, as the
// benchmark re-execs itself.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "-serve") {
		main()
		return
	}
	os.Exit(m.Run())
}

func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		h.Write([]byte{byte(o.kind), byte(o.idx), byte(o.idx >> 8), byte(o.idx >> 16), byte(o.idx >> 24)})
	}
	return h.Sum64()
}

// A seed fixes the op stream to the bit, on any platform and Go version:
// the hashes are pinned.
func TestGeneratorsAreReproducible(t *testing.T) {
	pinned := map[string]uint64{
		"get-zipf":     0x4b39ef55110592c3,
		"put-small":    0x877b109f97aac9c9,
		"ycsb-a-paced": 0x8e925533872d7fed,
		"churn-crash":  0xd1f6ee5b09149e8d,
	}
	for i := range workloads {
		w := &workloads[i]
		a := w.gen(&rng{s: 42}, 0, 5000, 10000)
		b := w.gen(&rng{s: 42}, 0, 5000, 10000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two streams", w.name)
		}
		if c := w.gen(&rng{s: 43}, 0, 5000, 10000); !w.churn && reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave one stream", w.name)
		}
		if h := streamHash(a); h != pinned[w.name] {
			t.Errorf("%s: stream hash %#x, pinned %#x", w.name, h, pinned[w.name])
		}
		for _, o := range a {
			if !w.churn && int(o.idx) >= 10000 {
				t.Fatalf("%s: key index %d outside the loaded keys", w.name, o.idx)
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := newZipf(1000, zipfTheta)
	r := &rng{s: 1}
	hits := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		hits[z.rank(r)]++
	}
	// With theta 0.99 over 1000 items rank 0 draws about 1/zeta = 13%.
	if share := float64(hits[0]) / 100000; share < 0.11 || share > 0.16 {
		t.Errorf("rank 0 drew %.3f of the samples", share)
	}
	if hits[0] < 5*hits[9] || hits[999] == 0 && hits[998] == 0 && hits[997] == 0 {
		t.Errorf("not a zipfian shape: first %d, tenth %d, tail %v", hits[0], hits[9], hits[997:])
	}
}

func TestKeysInvert(t *testing.T) {
	seen := map[uint64]bool{}
	for _, idx := range []int{0, 1, 2, 63, 64, 39999, 40000, 1 << 20, 1<<32 + 5} {
		k := keyOf(idx)
		if k == 0 || k > 1<<40 || seen[k] {
			t.Errorf("keyOf(%d) = %d", idx, k)
		}
		seen[k] = true
		if got := idxOf(k); got != idx {
			t.Errorf("idxOf(keyOf(%d)) = %d", idx, got)
		}
	}
}

func TestValuesAreCheckable(t *testing.T) {
	for _, n := range []int{16, 100, 400} {
		v := appendValue(nil, 7, 3, n)
		if len(v) != n {
			t.Fatalf("value of %d bytes is %d long", n, len(v))
		}
		if ver, ok := decodeValue(v, 7, n, nil); !ok || ver != 3 {
			t.Errorf("decode: version %d, intact %v", ver, ok)
		}
		if _, ok := decodeValue(v, 8, n, nil); ok {
			t.Error("another key's value passed")
		}
		if n > minValueLen {
			v[n-1]++
			if _, ok := decodeValue(v, 7, n, nil); ok {
				t.Error("a torn value passed")
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 50, 0.99: 99, 0.999: 100, 1: 100, 0: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %d, want %d", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing")
	}
	if got := percentile(sortedCopy([]int64{9, 1, 5}), 0.5); got != 5 {
		t.Errorf("median of 9,1,5 = %d", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the benchmark's acceptance uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("five values: %v %v %v", q1, med, q3)
	}
}

func TestModel(t *testing.T) {
	m := newModel(8)
	for _, idx := range []uint32{0, 1, 2} {
		m.issue(idx)
		m.ack(idx, false)
	}
	if m.n != 3 || m.userBytes(100) != 3*108 {
		t.Fatalf("three keys live: n %d, %d bytes", m.n, m.userBytes(100))
	}
	if v := m.issue(1); v != 2 || !m.busy(1) || m.newest(1) != 2 || m.ver[1] != 1 {
		t.Errorf("write in flight: version %d, busy %v, newest %d, acked %d", v, m.busy(1), m.newest(1), m.ver[1])
	}
	m.ack(1, false)
	if m.busy(1) || m.ver[1] != 2 || m.n != 3 {
		t.Errorf("overwrite acked: busy %v, version %d, n %d", m.busy(1), m.ver[1], m.n)
	}
	m.issue(0)
	m.ack(0, true)
	if m.live[0] || m.n != 2 || m.ver[0] != 2 {
		t.Errorf("delete acked: live %v, n %d, version %d", m.live[0], m.n, m.ver[0])
	}
	want := []uint64{keyOf(1), keyOf(2)}
	slices.Sort(want)
	if got := m.sortedKeys(); !slices.Equal(got, want) {
		t.Errorf("sorted keys %v, want %v", got, want)
	}
}

// An open loop charges a stall to every op it delays: against a server
// that answers nothing until released, each op's latency must run from the
// instant it was due, not from when it was sent or when the stall ended.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const n, rate = 40, 1000 // one op per millisecond
	const stall = 80 * time.Millisecond
	release := make(chan struct{})
	start := time.Now()
	time.AfterFunc(stall, func() { close(release) })
	lat, late := make([]int64, n), make([]int64, n)
	err := openLoop(n, rate, time.Millisecond, lat, late, func(int) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent := time.Since(start); sent > 4*stall {
		t.Fatalf("the dispatcher waited for answers: %v", sent)
	}
	for i := range lat {
		due := time.Duration(i) * time.Second / rate
		want := stall - due
		got := time.Duration(lat[i])
		// Timers fire late, never early; allow the machine 30 ms.
		if got < want-2*time.Millisecond || got > want+30*time.Millisecond {
			t.Errorf("op %d, due at %v: latency %v, want about %v", i, due, got, want)
		}
		if late[i] < 0 || time.Duration(late[i]) > 30*time.Millisecond {
			t.Errorf("op %d was sent %v after it was due", i, time.Duration(late[i]))
		}
	}
	// A coarse tick sends late, and that lateness is in the latency too.
	lat, late = make([]int64, n), make([]int64, n)
	if err := openLoop(n, rate, 20*time.Millisecond, lat, late, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var worst int64
	for i := range lat {
		if lat[i] < late[i] {
			t.Errorf("op %d: latency %d ns is less than its lateness %d ns", i, lat[i], late[i])
		}
		worst = max(worst, late[i])
	}
	if time.Duration(worst) < 10*time.Millisecond {
		t.Errorf("a 20 ms tick at 1000 ops/s sent nothing later than %v", time.Duration(worst))
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json and the benchmark's own tables are one list written
// twice; this holds them equal, and within the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %q, built %q (why %d chars)", i, b.Workloads[i].Name, w.name, len(w.why))
		}
	}
	check := func(kind string, declared []jsonMetric, built []metricDef, bounded bool) {
		if len(declared) != len(built) {
			t.Fatalf("%s: %d declared, %d built", kind, len(declared), len(built))
		}
		for i, d := range built {
			j := declared[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: declared %+v, built %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || bounded && (*j.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound declared %v, built %v", kind, d.name, j.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s must be declared")
	}
}

// Every workload at smoke scale, with its kill and restart, and one traced
// run: nothing wrong or lost, every declared metric printed, and every
// end-to-end metric a positive number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	out := t.TempDir()
	for i := range workloads {
		for _, trace := range []bool{false, i == 1} {
			o := options{workload: &workloads[i], seed: 7, seconds: 10, trace: trace, sc: smokeScale, out: out}
			res, vals, err := o.run()
			if err != nil {
				t.Fatalf("%s: %v", o.workload.name, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s: %d of %d ops failed", o.workload.name, res.failed, res.attempted)
			}
			if len(res.recoveries) != 1 || !res.lastRec.Recovery.CrashDetected {
				t.Errorf("%s: no kill and restart happened", o.workload.name)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join(out, o.workload.name+".trace.jsonl")); err != nil {
					t.Error(err)
				}
			}
			if len(vals) != len(defs) {
				t.Errorf("%s: %d metrics computed, %d declared", o.workload.name, len(vals), len(defs))
			}
			for _, d := range defs {
				v, ok := vals[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || !trace && v <= 0 {
					t.Errorf("%s: %s = %v (computed %v)", o.workload.name, d.name, v, ok)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, runDirPrefix+"*")); len(left) > 0 {
		t.Errorf("stores left behind: %v", left)
	}
}
