package main

import (
	"slices"
	"time"
)

// metricDef is one reported metric. The two lists below are the same ones
// BENCHMARK.json declares; a unit test holds them equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEnd is what a user of the store sees, in every workload. The four
// timings carry the widest bound allowed: on a shared 2-vCPU box whole runs
// drift together by a tenth or more over minutes. The seven counts repeat to
// a part in a thousand and are the fine gates. README.md has the measured
// spread behind each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"dev_ns_per_op", "ns/op", "lower", 0.02},
	{"write_amp", "x", "lower", 0.02},
	{"dev_loads_per_op", "count", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_bytes_per_op", "B", "lower", 0.03},
	{"space_amp", "x", "lower", 0.03},
	{"rss_mb", "MB", "lower", 0.05},
	{"recovery_s", "s", "lower", 0.25},
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func medianDuration(d []time.Duration) time.Duration {
	v := make([]int64, len(d))
	for i := range d {
		v[i] = int64(d[i])
	}
	return time.Duration(percentile(sortedCopy(v), 0.5))
}

var calSink uint64

// calibrate times a fixed loop that lives in registers and L1, so a slow
// machine can be told from a slow build: it is run before and after every
// workload and reported as env.cal_ms.
func calibrate() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	var tab [256]uint64
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&255] += x
	}
	calSink += tab[x&255]
	return time.Since(t)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// endToEndValues computes every end-to-end metric of a run.
func (res *runResult) endToEndValues() map[string]float64 {
	ph := &res.phase
	ops := float64(len(ph.ops))
	b := &res.bill
	return map[string]float64{
		"setup_s":            medianDuration(res.setups).Seconds(),
		"ops_per_s":          ops / ph.wall.Seconds(),
		"lat_p50_us":         us(percentile(sortedCopy(ph.headlineLat()), 0.5)),
		"dev_ns_per_op":      float64(b.simNs) / float64(b.ops),
		"write_amp":          64 * float64(b.lineWrites) / float64(b.userBytes),
		"dev_loads_per_op":   float64(b.loads) / float64(b.ops),
		"allocs_per_op":      float64(ph.after.Mallocs-ph.before.Mallocs) / ops,
		"alloc_bytes_per_op": float64(ph.after.AllocB-ph.before.AllocB) / ops,
		"space_amp":          float64(ph.after.Server.Arena.AllocatedBytes) / float64(ph.userBytes),
		"rss_mb":             float64(ph.after.VmHWMKB) / 1024,
		"recovery_s":         medianDuration(res.recoveries).Seconds(),
	}
}

// headlineLat is the latencies lat_p50_us is the median of: the phase's
// writes where it has any, every op where it has none. A median over a
// half-and-half mix of fast reads and slow durable writes would sit on the
// edge between the two and jump from one to the other between runs.
func (ph *phaseStats) headlineLat() []int64 {
	var w []int64
	for i, o := range ph.ops {
		if o.isWrite() {
			w = append(w, ph.lat[i])
		}
	}
	if len(w) == 0 {
		return ph.lat
	}
	return w
}
