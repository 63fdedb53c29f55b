package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4), which is what the
// benchmark's acceptance is computed with.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// worse is by how large a share of base the value v is worse than base.
func worse(d metricDef, v, base float64) float64 {
	if d.better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// selfCheck runs every workload in ws in two interleaved sets of n runs,
// each run on its own seed, and holds the benchmark to its own bounds: the
// two sets' medians may not differ by more than a metric's bound, and no
// run may stray further than the bound from its set's median. setup_s is
// held to the first rule only, as in the benchmark's acceptance: it is
// CPU-bound, and single runs of it stray by a third on a shared machine.
func selfCheck(o options, ws []workload, n int) bool {
	ok := true
	for i := range ws {
		o.workload = &ws[i]
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for r := 0; r < 2*n; r++ {
			o.seed++
			res, vals, err := o.run()
			if err != nil {
				fatal(err)
			}
			if res.failed > 0 {
				fmt.Printf("%s seed %d: %d of %d ops failed\n", o.workload.name, o.seed, res.failed, res.attempted)
				ok = false
			}
			for k, v := range vals {
				sets[r%2][k] = append(sets[r%2][k], v)
			}
		}
		fmt.Printf("%s: two sets of %d runs\n", o.workload.name, n)
		for _, d := range endToEnd {
			var med [2]float64
			verdict := "ok"
			for s := range sets {
				q1, m, q3 := quartiles(sets[s][d.name])
				med[s] = m
				fmt.Printf("  %-20s set %c  q1 %14.4f  median %14.4f  q3 %14.4f %s\n", d.name, 'A'+s, q1, m, q3, d.unit)
				for _, v := range sets[s][d.name] {
					if d.name != "setup_s" && math.Abs(worse(d, v, m)) > d.bound {
						verdict = fmt.Sprintf("FAIL: a run read %.4f, more than %.0f%% from its set's median", v, 100*d.bound)
					}
				}
			}
			if diff := math.Abs(worse(d, med[1], med[0])); diff > d.bound {
				verdict = fmt.Sprintf("FAIL: the medians differ by %.1f%%, bound %.0f%%", 100*diff, 100*d.bound)
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("  %-20s %s\n", d.name, verdict)
		}
	}
	return ok
}
