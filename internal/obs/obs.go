// Package obs is rewind's observability layer: a metrics registry
// (counters, gauges, latency histograms) with Prometheus-text and JSON
// exposition, per-operation spans with commit-pipeline phase timings, a
// per-connection flight recorder, and a slow-op log.
//
// The package is a stdlib-only leaf so every layer of the stack — core,
// kv, server, the daemons — can record into it without import cycles.
//
// # Cost model
//
// Everything here is designed to be ON by default on a serving path:
//
//   - All recording entry points are nil-receiver safe. A layer holds a
//     *Obs that is nil when observability is off, so the disabled path
//     costs one pointer test and no allocation.
//   - Counters are striped over cache-line-padded atomic slots, so
//     concurrent Add calls from different goroutines rarely collide on
//     one cache line.
//   - Histograms are fixed arrays of atomic buckets (power-of-two
//     boundaries): Observe is two atomic adds and a CAS-bounded max
//     update, no locks, no allocation.
//   - Nothing in this package touches the simulated NVM device, so
//     enabling observability leaves device counters (fences, flushes,
//     line writes, simulated time) bit-for-bit identical — which is what
//     the ≤5% overhead gate checks on the virtual clock.
//
// Wall-clock phase timings are exact per span. Simulated-device phase
// timings are derived from deltas of the device's global virtual clock
// and are therefore approximate under concurrency (another goroutine's
// charges can land inside a phase window); they are reported as the
// device-time *attribution* of a phase, not a per-goroutine measurement.
package obs

import (
	"fmt"
	"log"
	"sync"
	"time"
)

// OpKind identifies one wire operation class.
type OpKind int

// Wire operation kinds, in wire-protocol order.
const (
	OpGet OpKind = iota
	OpPut
	OpDel
	OpScan
	OpBatch
	OpStats
	OpBegin
	OpCommit
	OpRollback
	OpTxnGet
	OpTxnPut
	OpTxnDel
	OpCas
	OpGetAt
	OpOther
	NumOps
)

var opNames = [NumOps]string{
	"get", "put", "del", "scan", "batch", "stats",
	"begin", "commit", "rollback", "txn_get", "txn_put", "txn_del",
	"cas", "get_at", "other",
}

// String returns the metric-name fragment for the op ("get", "put", ...).
func (k OpKind) String() string {
	if k < 0 || k >= NumOps {
		return "other"
	}
	return opNames[k]
}

// Phase identifies one commit-pipeline phase (DESIGN.md §9): the stations
// a request passes through between arriving at the store and its reply
// being released.
type Phase int

// Commit-pipeline phases.
const (
	// PhaseLatchWait is time spent acquiring admission locks: kv stripe
	// and leaf latches, plus the log shard mutex.
	PhaseLatchWait Phase = iota
	// PhaseLogAppend is time spent building and inserting log records
	// (spans, deletes, END) into the shard log.
	PhaseLogAppend
	// PhaseGather is group-commit round time: a leader's gather window
	// plus shard re-acquisition, or a follower's whole wait for the
	// leader's shared flush. A commit whose ticket an earlier flush
	// already covered records none.
	PhaseGather
	// PhaseFlushFence is explicit log force time: ForceFlush + fence
	// (the durability wait itself when group commit is off).
	PhaseFlushFence
	// PhasePublish is commit-publish callback time: seqlock window
	// closes, latch releases, last-ticket bookkeeping.
	PhasePublish
	// PhaseReplyQueue is a pipelined request's time between the end of
	// its execution and its turn to be released: later frames of the
	// same burst executing, earlier replies waiting out their durability.
	// Reads queue here too — a GET behind outstanding writes is answered
	// in order. A request alone on its connection records none.
	PhaseReplyQueue
	NumPhases
)

var phaseNames = [NumPhases]string{"latch_wait", "log_append", "gc_gather", "flush_fence", "publish", "reply_queue"}

// String returns the metric-name fragment for the phase.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Span is one operation's flight record: what it was, when it started,
// how long it took on the wall clock and the simulated device clock, and
// how the time divides over the commit-pipeline phases. Spans are plain
// values; the ring buffers copy them, so a reader can never observe a
// span being mutated (writers fill a span before handing it over).
type Span struct {
	Op    OpKind
	Key   uint64
	Start time.Time
	// WallNs and SimNs are the whole-op durations, filled by FinishSpan.
	WallNs, SimNs int64
	// Phases / PhasesSim hold per-phase wall and simulated-device
	// nanoseconds. Phases not visited stay zero. The difference between
	// WallNs and the phase sum is time outside the commit pipeline
	// (decode, tree traversal, response encode).
	Phases    [NumPhases]int64
	PhasesSim [NumPhases]int64
}

// PhaseBreakdown renders the span's phase timings for the slow-op log,
// e.g. "latch_wait 1.2µs, gc_gather 40ms, publish 5ms, other 1.1ms".
// Phases with zero time are omitted.
func (s *Span) PhaseBreakdown() string {
	out := ""
	var accounted int64
	for p := Phase(0); p < NumPhases; p++ {
		accounted += s.Phases[p]
		if s.Phases[p] == 0 {
			continue
		}
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%v %v", p, time.Duration(s.Phases[p]))
	}
	if other := s.WallNs - accounted; other > 0 {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("other %v", time.Duration(other))
	}
	if out == "" {
		return "no phases recorded"
	}
	return out
}

// Flight is a fixed-size ring of recent op spans — one per connection in
// the server, so an operator can ask "what did this connection just do"
// without any global coordination. A small mutex (not atomics) guards it:
// pushes are one struct copy under an uncontended per-connection lock,
// and snapshots copy out whole spans, so readers never see a torn span.
type Flight struct {
	mu   sync.Mutex
	buf  []Span
	next int
	n    int64 // total spans ever pushed
}

// NewFlight returns a ring holding the last size spans (minimum 1).
func NewFlight(size int) *Flight {
	if size < 1 {
		size = 1
	}
	return &Flight{buf: make([]Span, 0, size)}
}

// Push records one completed span.
func (f *Flight) Push(s Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, s)
	} else {
		f.buf[f.next] = s
		f.next = (f.next + 1) % len(f.buf)
	}
	f.n++
	f.mu.Unlock()
}

// Snapshot returns the recorded spans, oldest first.
func (f *Flight) Snapshot() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Span, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Total returns how many spans were ever pushed (monotonic).
func (f *Flight) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Config tunes an Obs instance.
type Config struct {
	// SlowOp is the slow-op threshold: any finished span whose wall time
	// meets or exceeds it is counted, kept in the slow ring, and emitted
	// through Logf with its full phase breakdown. Zero disables capture.
	SlowOp time.Duration
	// FlightSize is the per-connection flight-recorder ring size
	// (default 64).
	FlightSize int
	// SlowRing is how many recent slow spans are retained (default 32).
	SlowRing int
	// Logf emits slow-op lines (default log.Printf).
	Logf func(format string, args ...any)
}

// Obs is the live observability state: op and commit-phase histograms
// (wall + simulated device time), the slow-op ring, and the registry the
// metric families are published in. A nil *Obs is valid everywhere and
// records nothing.
type Obs struct {
	reg *Registry
	cfg Config

	opWall    [NumOps]*Histogram
	opSim     [NumOps]*Histogram
	phaseWall [NumPhases]*Histogram
	phaseSim  [NumPhases]*Histogram

	slowOps *Counter

	slowMu   sync.Mutex
	slow     []Span
	slowNext int
}

// New builds an Obs recording into reg, registering the op and
// commit-phase histogram families and the slow-op counter.
func New(reg *Registry, cfg Config) *Obs {
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = 64
	}
	if cfg.SlowRing <= 0 {
		cfg.SlowRing = 32
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	o := &Obs{reg: reg, cfg: cfg}
	for k := OpKind(0); k < NumOps; k++ {
		o.opWall[k] = reg.NewHistogram("rewind_op_"+k.String()+"_wall_ns",
			"wall-clock latency of "+k.String()+" requests in nanoseconds")
		o.opSim[k] = reg.NewHistogram("rewind_op_"+k.String()+"_sim_ns",
			"simulated-device time attributed to "+k.String()+" requests in nanoseconds")
	}
	for p := Phase(0); p < NumPhases; p++ {
		o.phaseWall[p] = reg.NewHistogram("rewind_commit_"+p.String()+"_wall_ns",
			"wall-clock time in the "+p.String()+" commit phase in nanoseconds")
		o.phaseSim[p] = reg.NewHistogram("rewind_commit_"+p.String()+"_sim_ns",
			"simulated-device time attributed to the "+p.String()+" commit phase in nanoseconds")
	}
	o.slowOps = reg.NewCounter("rewind_slow_ops_total",
		"requests whose wall time met or exceeded the slow-op threshold")
	return o
}

// Registry returns the registry the Obs records into (nil-safe).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// FlightSize returns the configured per-connection ring size (nil-safe).
func (o *Obs) FlightSize() int {
	if o == nil {
		return 0
	}
	return o.cfg.FlightSize
}

// SlowOpThreshold returns the slow-op threshold (nil-safe; 0 = disabled).
func (o *Obs) SlowOpThreshold() time.Duration {
	if o == nil {
		return 0
	}
	return o.cfg.SlowOp
}

// StartSpan begins a span for one operation. Returns nil on a nil Obs,
// and every consumer of spans accepts nil.
func (o *Obs) StartSpan(op OpKind, key uint64) *Span {
	if o == nil {
		return nil
	}
	return &Span{Op: op, Key: key, Start: time.Now()}
}

// PhaseNs records one commit-pipeline phase observation: into the phase
// histograms always, and into span's per-phase totals when span is
// non-nil. Safe on a nil Obs.
func (o *Obs) PhaseNs(span *Span, p Phase, wallNs, simNs int64) {
	if o == nil {
		return
	}
	o.phaseWall[p].Observe(wallNs)
	o.phaseSim[p].Observe(simNs)
	if span != nil {
		span.Phases[p] += wallNs
		span.PhasesSim[p] += simNs
	}
}

// FinishSpan completes a span: fills its totals, records the op
// histograms, pushes it onto fr (when non-nil), and applies slow-op
// capture. Safe on a nil Obs or a nil span.
func (o *Obs) FinishSpan(span *Span, simNs int64, fr *Flight) {
	if o == nil || span == nil {
		return
	}
	span.WallNs = time.Since(span.Start).Nanoseconds()
	span.SimNs = simNs
	o.opWall[span.Op].Observe(span.WallNs)
	o.opSim[span.Op].Observe(simNs)
	fr.Push(*span)
	if t := o.cfg.SlowOp; t > 0 && span.WallNs >= int64(t) {
		o.recordSlow(*span)
	}
}

// recordSlow counts, retains, and emits one slow span.
func (o *Obs) recordSlow(s Span) {
	o.slowOps.Add(1)
	o.slowMu.Lock()
	if len(o.slow) < o.cfg.SlowRing {
		o.slow = append(o.slow, s)
	} else {
		o.slow[o.slowNext] = s
		o.slowNext = (o.slowNext + 1) % len(o.slow)
	}
	o.slowMu.Unlock()
	o.cfg.Logf("obs: slow %v key=%d: %v wall (%v device): %s",
		s.Op, s.Key, time.Duration(s.WallNs), time.Duration(s.SimNs), s.PhaseBreakdown())
}

// SlowSpans returns the retained slow spans, oldest first (nil-safe).
func (o *Obs) SlowSpans() []Span {
	if o == nil {
		return nil
	}
	o.slowMu.Lock()
	defer o.slowMu.Unlock()
	out := make([]Span, 0, len(o.slow))
	out = append(out, o.slow[o.slowNext:]...)
	out = append(out, o.slow[:o.slowNext]...)
	return out
}

// SlowCount returns how many slow ops were captured (nil-safe).
func (o *Obs) SlowCount() int64 {
	if o == nil {
		return 0
	}
	return o.slowOps.Load()
}

// OpLatency is the quantile summary of one histogram pair, carried in
// the wire STATS document so clients can render latency tables without
// scraping /metrics.
type OpLatency struct {
	Count                              int64
	WallP50, WallP95, WallP99, WallMax int64
	SimP50, SimP95, SimP99, SimMax     int64
}

func latencyOf(wall, sim *Histogram) (OpLatency, bool) {
	w, s := wall.Snapshot(), sim.Snapshot()
	if w.Count == 0 {
		return OpLatency{}, false
	}
	return OpLatency{
		Count:   w.Count,
		WallP50: w.Quantile(0.50), WallP95: w.Quantile(0.95),
		WallP99: w.Quantile(0.99), WallMax: w.Max,
		SimP50: s.Quantile(0.50), SimP95: s.Quantile(0.95),
		SimP99: s.Quantile(0.99), SimMax: s.Max,
	}, true
}

// OpLatencies summarizes the per-op histograms: one entry per op kind
// that has recorded at least one span (nil-safe; nil map when off).
func (o *Obs) OpLatencies() map[string]OpLatency {
	if o == nil {
		return nil
	}
	out := map[string]OpLatency{}
	for k := OpKind(0); k < NumOps; k++ {
		if l, ok := latencyOf(o.opWall[k], o.opSim[k]); ok {
			out[k.String()] = l
		}
	}
	return out
}

// PhaseLatencies summarizes the commit-phase histograms (nil-safe).
func (o *Obs) PhaseLatencies() map[string]OpLatency {
	if o == nil {
		return nil
	}
	out := map[string]OpLatency{}
	for p := Phase(0); p < NumPhases; p++ {
		if l, ok := latencyOf(o.phaseWall[p], o.phaseSim[p]); ok {
			out[p.String()] = l
		}
	}
	return out
}
