package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/rewind-db/rewind/client"
)

// scale is everything about a run's size that is not the workload's mix.
// full is what BENCHMARK.json's command runs; smoke is the unit tests'.
type scale struct {
	keys          int // keys loaded during set-up
	loadCkptEvery int // awaited checkpoint every this many loaded keys
	setups        int // times set-up is repeated; setup_s is the median
	crashCycles   int // checkpoint, write, SIGKILL, restart, read back
	crashWrites   int // acked writes between the checkpoint and the kill
	opsDivisor    int // divides the measured phase's op count
	trace         traceScale
}

var (
	fullScale = scale{keys: 40000, loadCkptEvery: 10000, setups: 3, crashCycles: 5, crashWrites: 64 * 100, opsDivisor: 1,
		trace: traceScale{keys: 10000, ops: 4000}}
	smokeScale = scale{keys: 1000, loadCkptEvery: 400, setups: 1, crashCycles: 1, crashWrites: 64 * 4, opsDivisor: 20,
		trace: traceScale{keys: 500, ops: 100}}
)

// phaseStats is the measured phase as the parent saw it, with the daemon's
// counters at both ends.
type phaseStats struct {
	ops       []op
	wall      time.Duration
	lat, late []int64 // per op, ns: latency, and how late the generator sent it
	before    *childStats
	after     *childStats
	userBytes int64 // live key+value bytes in the model when it ended
}

// postSetup accumulates the device's bill from the end of set-up to the
// last kill, over every daemon lifetime, leaving out recovery itself.
type postSetup struct {
	simNs, lineWrites, loads int64
	ops, writes, userBytes   int64
}

func (p *postSetup) add(from, to *childStats, ops, writes, userBytes int64) {
	p.simNs += to.Dev.SimulatedNS - from.Dev.SimulatedNS
	p.lineWrites += to.Dev.LineWrites - from.Dev.LineWrites
	p.loads += to.Dev.Loads - from.Dev.Loads
	p.ops += ops
	p.writes += writes
	p.userBytes += userBytes
}

// runResult is everything one run measured.
type runResult struct {
	workload   *workload
	seed       uint64
	dir        string
	fsType     int64 // of dir, which is gone by the time the result is printed
	setups     []time.Duration
	phase      phaseStats
	bill       postSetup
	recoveries []time.Duration
	lastRec    *childStats // the last restarted daemon's first snapshot
	attempted  int64
	failed     int64
	calBefore  time.Duration
	calAfter   time.Duration
}

// run is one daemon's worth of state while a workload runs.
type run struct {
	w   *workload
	sc  scale
	dir string
	d   *daemon
	cl  *client.Client
	dr  *driver
}

func (r *run) dial() {
	r.cl = client.Dial(r.d.addr, client.Options{Conns: conns, Retries: -1})
	r.dr.cl = r.cl
	r.dr.d = r.d
}

func (r *run) stop() {
	if r.cl != nil {
		r.cl.Close()
		r.cl = nil
	}
	if r.d != nil {
		r.d.kill()
		r.d = nil
	}
}

// setUp is what a user waits for before the store serves: start the
// daemon on a fresh directory, create the store, load it, checkpoint.
func (r *run) setUp(modelCap int) (time.Duration, error) {
	if err := os.RemoveAll(r.dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return 0, err
	}
	t := time.Now()
	d, err := startDaemon(r.dir)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.dr = newDriver(r.w, nil, nil, modelCap)
	r.dial()
	if err := r.dr.load(0, r.sc.keys, r.sc.loadCkptEvery); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

// runWorkload is one whole run: repeated set-up, the measured phase, the
// crash cycles. baseDir must be inside the checkout.
func runWorkload(w *workload, seed uint64, seconds int, sc scale, baseDir string) (res *runResult, err error) {
	res = &runResult{workload: w, seed: seed, dir: baseDir}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(baseDir, &fs); err == nil {
		res.fsType = int64(fs.Type)
	}
	r := &run{w: w, sc: sc, dir: filepath.Join(baseDir, "store")}
	defer r.stop()

	n := seconds * w.opsPerSecond / sc.opsDivisor
	crashOps := sc.crashCycles * (sc.crashWrites + batchOps)
	modelCap := sc.keys + (n+crashOps)/2 + 1

	res.calBefore = calibrate()
	for i := 0; i < sc.setups; i++ {
		r.stop()
		d, err := r.setUp(modelCap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, d)
	}
	dr := r.dr

	gen := &rng{s: seed}
	ops := w.gen(gen, 0, n, sc.keys)
	if !opsWrite(ops) {
		dr.sorted = dr.m.sortedKeys()
	}
	if err := r.measure(ops, &res.phase); err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	res.bill.add(res.phase.before, res.phase.after, int64(n), dr.writes, dr.userBytes)

	from := res.phase.after
	for c := 0; c < sc.crashCycles; c++ {
		var cw []op
		if w.churn {
			cw = w.gen(gen, n+c*(sc.crashWrites+batchOps), sc.crashWrites+batchOps, sc.keys)
		} else {
			cw = uniformPuts(gen, 0, sc.crashWrites+batchOps, sc.keys)
		}
		rec, first, err := r.crashCycle(cw, from, &res.bill)
		if err != nil {
			return nil, fmt.Errorf("crash cycle %d: %w", c+1, err)
		}
		res.recoveries = append(res.recoveries, rec)
		from, res.lastRec = first, first
	}
	res.calAfter = calibrate()
	res.attempted, res.failed = dr.attempted.Load(), dr.failed.Load()
	return res, nil
}

func opsWrite(ops []op) bool {
	for _, o := range ops {
		if o.isWrite() {
			return true
		}
	}
	return false
}

// measure runs the measured phase between two snapshots of the daemon's
// counters. Checkpoints the phase triggered are awaited before the second
// snapshot, so their work is in the bill, but outside the wall time.
func (r *run) measure(ops []op, ph *phaseStats) error {
	dr := r.dr
	var err error
	if ph.before, err = r.d.stats(); err != nil {
		return err
	}
	ph.ops = ops
	ph.lat, ph.late = make([]int64, len(ops)), make([]int64, len(ops))
	t := time.Now()
	if r.w.paced {
		err = openLoop(len(ops), r.w.opsPerSecond, pacedTick, ph.lat, ph.late, func(i int) error {
			scratch := make([]byte, 0, r.w.valueLen)
			return dr.do(ops[i], &scratch)
		})
	} else {
		err = dr.closedLoop(ops, conns*connDepth, ph.lat, ph.late)
	}
	ph.wall = time.Since(t)
	if err != nil {
		return err
	}
	if err := dr.drainCheckpoints(); err != nil {
		return err
	}
	ph.userBytes = dr.m.userBytes(r.w.valueLen)
	ph.after, err = r.d.stats()
	return err
}

// crashCycle is: awaited checkpoint, the acked writes of cw but for its
// last frame, a snapshot that closes the daemon's bill since from, the last
// frame sent and the daemon killed under it, restart on the same file, time
// to the first answered GET, and the whole store read back against the
// model. It returns the recovery time and the new daemon's first snapshot.
func (r *run) crashCycle(cw []op, from *childStats, bill *postSetup) (time.Duration, *childStats, error) {
	dr := r.dr
	writes, bytes := dr.writes, dr.userBytes
	if err := r.d.checkpointWait(); err != nil {
		return 0, nil, err
	}
	for ; len(cw) > batchOps; cw = cw[batchOps:] {
		if err := dr.sendBatch(dr.planBatch(cw[:batchOps])); err != nil {
			return 0, nil, err
		}
	}
	last, err := r.d.stats()
	if err != nil {
		return 0, nil, err
	}
	bill.add(from, last, dr.writes-writes, dr.writes-writes, dr.userBytes-bytes)

	// The last frame is the one the kill races.
	torn := dr.planBatch(cw)
	cl := r.cl
	sent := make(chan error, 1)
	go func() { sent <- cl.Batch(torn.ops) }()
	time.Sleep(killDelay)
	r.cl = nil
	r.d.kill()
	r.d = nil
	acked := <-sent == nil
	cl.Close()

	t := time.Now()
	if r.d, err = startDaemon(r.dir); err != nil {
		return 0, nil, err
	}
	r.dial()
	if _, err := r.cl.Get(keyOf(dr.anyLiveKey())); err != nil {
		return 0, nil, fmt.Errorf("first GET after restart: %w", err)
	}
	rec := time.Since(t)

	if err := dr.resolveTorn(torn, acked); err != nil {
		return 0, nil, err
	}
	if err := dr.verify(); err != nil {
		return 0, nil, err
	}
	first, err := r.d.stats()
	if err == nil && !first.Recovery.CrashDetected {
		err = errors.New("restarted daemon did not notice the crash")
	}
	return rec, first, err
}

// killDelay lets the doomed frame reach the daemon, so the kill lands
// while its commit is in progress about as often as before or after.
const killDelay = 300 * time.Microsecond

// batchPlan is one Batch frame and what it does to the model.
type batchPlan struct {
	ops []client.Op
	idx []uint32 // per op
	ver []uint32 // per op: the version it stores (or deletes at)
}

// planBatch turns write ops into a frame. A key written twice in a frame
// gets consecutive versions, as the daemon applies ops in order.
func (dr *driver) planBatch(ops []op) *batchPlan {
	p := new(batchPlan)
	next := map[uint32]uint32{}
	for _, o := range ops {
		ver, ok := next[o.idx]
		if !ok {
			ver = dr.m.ver[o.idx]
		}
		ver++
		next[o.idx] = ver
		p.idx = append(p.idx, o.idx)
		p.ver = append(p.ver, ver)
		if o.kind == opDelete {
			p.ops = append(p.ops, client.Op{Delete: true, Key: keyOf(int(o.idx))})
		} else {
			p.ops = append(p.ops, client.Op{Key: keyOf(int(o.idx)), Value: appendValue(nil, int(o.idx), ver, dr.w.valueLen)})
		}
	}
	return p
}

// apply records an acknowledged (or found-applied) frame in the model.
func (dr *driver) apply(p *batchPlan) {
	for i, idx := range p.idx {
		dr.m.pend[idx] = p.ver[i]
		dr.m.ack(idx, p.ops[i].Delete)
	}
	dr.wrote(len(p.ops), 0) //nolint:errcheck // no checkpoint is triggered, so no error
}

func (dr *driver) sendBatch(p *batchPlan) error {
	dr.attempted.Add(int64(len(p.ops)))
	if err := dr.cl.Batch(p.ops); err != nil {
		return fmt.Errorf("batch was not acknowledged: %w", err)
	}
	dr.apply(p)
	return nil
}

// resolveTorn settles the frame the kill raced. Acknowledged, it must be
// there; unacknowledged, it may be there whole or not at all — the first
// key read tells which, and verify then holds every other key to it.
func (dr *driver) resolveTorn(p *batchPlan, acked bool) error {
	dr.attempted.Add(int64(len(p.ops)))
	applied := acked
	if !acked {
		idx := p.idx[0]
		v, err := dr.cl.Get(keyOf(int(idx)))
		switch {
		case err == nil:
			ver, ok := decodeValue(v, int(idx), dr.w.valueLen, nil)
			applied = ok && ver > dr.m.ver[idx]
		case errors.Is(err, client.ErrNotFound):
			applied = dr.m.live[idx] // it was live, so the frame's delete took it
		default:
			return fmt.Errorf("reading back the unacknowledged frame: %w", err)
		}
	}
	if applied {
		dr.apply(p)
	}
	return nil
}

// anyLiveKey returns the index of some live key, for the first GET after a
// restart.
func (dr *driver) anyLiveKey() int {
	for i := len(dr.m.live) - 1; i >= 0; i-- {
		if dr.m.live[i] {
			return i
		}
	}
	return 0
}
