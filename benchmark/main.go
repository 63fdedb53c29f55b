// Command benchmark is the repository's end-to-end benchmark: it runs the
// daemon's stack as a child process, drives one workload at it over
// loopback TCP, checks every answer against a model, kills and restarts it,
// and prints every metric BENCHMARK.json declares. See README.md.
//
//	benchmark -workload put-small -seed 7 -seconds 10 -trace 0
//	benchmark -aa 5                       # is the benchmark itself steady?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// options are the command line of one run.
type options struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	sc       scale
	out      string // absolute; holds the store while it runs and the trace after
}

func main() {
	serveMode := flag.Bool("serve", false, "run as the daemon child (internal)")
	dir := flag.String("dir", "", "daemon child: directory of the backing file (internal)")
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the workload's op stream")
	seconds := flag.Int("seconds", 10, "length of the measured phase at the seed commit's speed; sets its op count")
	trace := flag.Int("trace", 0, "1: one set-up and crash cycle, then replay the workload at each layer boundary; prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny scale, for a quick check that everything runs")
	aa := flag.Int("aa", 0, "self-check: run two interleaved sets of this many runs of the same code and compare them (every workload unless -workload is given)")
	out := flag.String("out", "out", "directory for the store while it runs and the trace file")
	flag.Parse()

	if *serveMode {
		if err := serve(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark daemon:", err)
			os.Exit(1)
		}
		return
	}
	runtime.GOMAXPROCS(1)
	o := options{workload: findWorkload(*name), seed: *seed, seconds: *seconds, trace: *trace != 0, sc: fullScale}
	if *smoke {
		o.sc = smokeScale
	}
	if (o.workload == nil && (*aa == 0 || *name != "")) || o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -workload must be one of %s, -seconds at least 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var err error
	if o.out, err = filepath.Abs(*out); err != nil {
		fatal(err)
	}
	// A signal must not leave a store or a daemon behind. The daemon ends
	// by itself when this process does (its stdin closes); the store's
	// directory is removed here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		removeRunDirs(o.out, func(pid int) bool { return pid == os.Getpid() })
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", s)
		os.Exit(1)
	}()

	// Earlier runs that died without their deferred clean-up (SIGKILL at a
	// time limit, a panic on a worker goroutine) left their stores behind.
	removeRunDirs(o.out, func(pid int) bool { return syscall.Kill(pid, 0) == syscall.ESRCH })
	if *aa > 0 {
		o.trace = false
		ws := workloads
		if o.workload != nil {
			ws = []workload{*o.workload}
		}
		if !selfCheck(o, ws, *aa) {
			os.Exit(1)
		}
		return
	}
	res, vals, err := o.run()
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	report(res, defs, vals)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// runDirPrefix names the per-run directories under -out, run-<pid>-<random>,
// so a signal handler can find its own and a later run those of the dead.
const runDirPrefix = "run-"

// removeRunDirs removes the run directories under out whose pid doomed picks.
func removeRunDirs(out string, doomed func(pid int) bool) {
	dirs, _ := filepath.Glob(filepath.Join(out, runDirPrefix+"*"))
	for _, d := range dirs {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(d), runDirPrefix+"%d-", &pid); err == nil && pid > 0 && doomed(pid) {
			os.RemoveAll(d)
		}
	}
}

// run does one run and computes the metrics its mode reports: end to end,
// or, traced, per layer.
func (o options) run() (*runResult, map[string]float64, error) {
	base, err := os.MkdirTemp(o.out, fmt.Sprintf("%s%d-", runDirPrefix, os.Getpid()))
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(base)
	sc := o.sc
	if o.trace {
		sc.setups, sc.crashCycles = 1, 1
	}
	res, err := runWorkload(o.workload, o.seed, o.seconds, sc, base)
	if err != nil {
		return nil, nil, err
	}
	if !o.trace {
		return res, res.endToEndValues(), nil
	}
	l, err := runLedger(o.workload, o.seed, sc.trace, filepath.Join(base, "ledger"))
	if err != nil {
		return nil, nil, err
	}
	if err := l.writeFile(filepath.Join(o.out, o.workload.name+".trace.jsonl")); err != nil {
		return nil, nil, err
	}
	return res, res.perLayerValues(l), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the environment, every metric by name and unit, then the
// result line.
func report(res *runResult, defs []metricDef, vals map[string]float64) {
	fmt.Printf("workload %s, seed %d: %d ops measured in %.2f s; set-ups %v; recoveries %v\n",
		res.workload.name, res.seed, len(res.phase.ops), res.phase.wall.Seconds(), res.setups, res.recoveries)
	printEnv(res)
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		fmt.Printf("%-30s %16.4f %s\n", d.name, vals[d.name], d.unit)
		line.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	fmt.Printf("%-30s %16d\n%-30s %16d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// printEnv says what machine the numbers are from.
func printEnv(res *runResult) {
	var u syscall.Utsname
	syscall.Uname(&u) //nolint:errcheck // an empty kernel name is the fallback
	fmt.Printf("env: nproc %d, %s, kernel %s, store in %s (fs type %#x), env.cal_ms %.1f before / %.1f after\n",
		runtime.NumCPU(), runtime.Version(), utsString(u.Release[:]), res.dir, res.fsType,
		float64(res.calBefore.Microseconds())/1e3, float64(res.calAfter.Microseconds())/1e3)
}

func utsString(f []int8) string {
	var b []byte
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
