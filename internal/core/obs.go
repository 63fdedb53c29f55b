package core

import (
	"time"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
)

// phaseClock stamps a commit's passage through the pipeline phases
// (obs.PhaseLatchWait .. obs.PhasePublish). It is a plain value carried
// down each half of the commit path: created at Publish entry, and again
// at WaitDurable entry when the ticket is not yet durable, each mark records
// the wall-clock and virtual-clock time since the previous mark into
// the Obs histograms (and the transaction's span, when one is
// attached). With observability off the zero phaseClock makes every
// mark a single nil test — the commit hot path stays unchanged.
//
// The virtual-clock side samples the device's global SimNS counter, so
// under concurrency a phase may absorb charges issued by other
// goroutines inside its window; the histograms therefore report
// device-time attribution, not per-goroutine isolation (obs package
// comment).
type phaseClock struct {
	o    *obs.Obs
	span *obs.Span
	mem  *nvm.Memory
	wall time.Time
	sim  int64
}

// startPhases opens a phase clock recording into span (nil: histograms
// only).
func (tm *TM) startPhases(span *obs.Span) phaseClock {
	o := tm.cfg.Obs
	if o == nil {
		return phaseClock{}
	}
	return phaseClock{o: o, span: span, mem: tm.mem, wall: time.Now(), sim: tm.mem.SimNS()}
}

// mark closes the current phase as p and starts the next one.
func (pc *phaseClock) mark(p obs.Phase) {
	if pc.o == nil {
		return
	}
	now, sim := time.Now(), pc.mem.SimNS()
	pc.o.PhaseNs(pc.span, p, now.Sub(pc.wall).Nanoseconds(), sim-pc.sim)
	pc.wall, pc.sim = now, sim
}
