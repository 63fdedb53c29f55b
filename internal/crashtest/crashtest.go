// Package crashtest is the one crash explorer behind the repository's crash
// matrices (DESIGN.md §1, "How crash consistency is tested"). It is imported
// only by _test.go files.
//
// The simulated device changes its durable image only at a durable
// operation — a non-temporal store, a dirty-line flush, a fence or a grow
// step — so crashing before each durable operation of a workload in turn
// visits every state a power failure could leave. Explore does that for one
// Case:
//
//   - Setup builds the starting state once, on one device; the plug is
//     pulled and the durable image up to the heap's bump is the snapshot.
//   - Every run restores that device to the snapshot (words, dirty bits,
//     coalescing window, countdown), opens it with the layer's recovery and
//     runs a fresh Model's workload, which calls arm where its crash window
//     opens. Durable operations before arm are never crashed.
//   - A first run, armed with a countdown it cannot exhaust, counts the
//     window's n durable operations. Then point k = 1 … n crashes before the
//     k-th of them, and point n+1 runs the window out and pulls the plug
//     after it.
//   - After each point the device is reopened and the Model checks the
//     recovered state. Then the point runs again, recovery itself is crashed
//     before one of its durable operations (each of them in turn with
//     EveryRecoveryPoint), and the reopened state is checked again.
//
// The full suite visits every point. Under -short a seeded sample of them
// is visited; the seed is logged, and a failure names it with the point and
// the recovery point. The recovery point a point crashes at depends on the
// point alone, so the unsampled run revisits exactly what a sample reported.
package crashtest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

// Model is one run of a workload and what that run promises.
type Model[S any] interface {
	// Run is the workload, on a store just opened over the restored
	// snapshot. It calls arm once, where the crash window opens. A run the
	// crash cuts short does not return; an error fails the point.
	Run(s S, arm func()) error
	// Check holds a store recovered after the run to what the run did;
	// crashed reports whether the crash cut the run short.
	Check(s S, crashed bool) error
}

// Case is one crash-consistency test.
type Case[S any] struct {
	// Setup builds the starting state and returns the device it is on. It
	// runs once. State it leaves in volatile memory only is lost: the
	// snapshot is what a reboot would find.
	Setup func() (*nvm.Memory, error)
	// Open attaches to the device after a restore or a crash: the layer's
	// recovery.
	Open func(m *nvm.Memory) (S, error)
	// Model returns a fresh model for every run.
	Model func() Model[S]
	// EveryRecoveryPoint crashes recovery before each of its durable
	// operations in turn, instead of before one chosen by the point.
	EveryRecoveryPoint bool
}

// never is a countdown no run exhausts: arming it counts a run's durable
// operations without crashing it.
const never = 1 << 40

// shortPoints is how many points a -short run visits: the first and last
// crash points, the point that runs the window out, and a seeded sample.
const shortPoints = 16

// Explore visits the crash points of c's window and returns how many
// durable operations the window holds.
func Explore[S any](t *testing.T, c Case[S]) int {
	t.Helper()
	m, err := c.Setup()
	if err != nil {
		t.Fatalf("crashtest: setup: %v", err)
	}
	e := &explorer[S]{t: t, c: c, m: m}
	e.crash()
	e.size = e.m.Size()
	e.snap = make([]uint64, e.heapEnd()/nvm.WordSize)
	for i := range e.snap {
		e.snap[i] = e.m.Load64(uint64(i) * nvm.WordSize)
	}
	if e.m.MaxSize() > e.size {
		// A run may grow the arena, and an arena does not shrink: restore
		// then loads this image into a fresh device instead.
		if e.image, err = e.m.PersistentImage(); err != nil {
			t.Fatalf("crashtest: %v", err)
		}
	}
	_, crashed, n := e.run(never)
	if crashed {
		t.Fatal("crashtest: the counting run crashed")
	}
	e.n = n
	points := e.points()
	if testing.Short() && len(points) > shortPoints {
		e.seed = time.Now().UnixNano()
		points = e.sample(points)
	}
	recoveries := 0
	for _, k := range points {
		recoveries += e.visit(k)
	}
	visited := fmt.Sprintf("all %d points", len(points))
	if e.seed != 0 {
		visited = fmt.Sprintf("%d points (-short seed %d)", len(points), e.seed)
	}
	t.Logf("crashtest: %d durable operations; visited %s, %d recovery crashes; snapshot %d KiB",
		n, visited, recoveries, len(e.snap)*nvm.WordSize>>10)
	return n
}

type explorer[S any] struct {
	t     *testing.T
	c     Case[S]
	m     *nvm.Memory
	snap  []uint64 // the durable words below the heap's end after Setup
	size  int      // the arena size after Setup
	image []byte   // the whole durable image after Setup, if the arena can grow
	n     int      // durable operations in the window
	seed  int64    // the -short sample's seed; 0 when every point is visited
}

// points returns every point: crash before durable operation 1 … n of the
// window, and n+1, the run that completes.
func (e *explorer[S]) points() []int {
	all := make([]int, e.n+1)
	for i := range all {
		all[i] = i + 1
	}
	return all
}

// sample keeps the first and last crash points, the completing run and a
// seeded choice of the rest, in order.
func (e *explorer[S]) sample(all []int) []int {
	rest := all[1 : len(all)-2]
	rand.New(rand.NewSource(e.seed)).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := append([]int{all[0], all[len(all)-2], all[len(all)-1]}, rest[:shortPoints-3]...)
	sort.Ints(out)
	return out
}

// visit runs point k, checks the recovered state, then crashes recovery
// and checks again. It returns how many recovery crashes it ran.
func (e *explorer[S]) visit(k int) int {
	md, crashed := e.cut(k)
	s, _, r := e.open(never)
	e.check(md, s, crashed, k, 0, r)
	rs := e.recoveryPoints(k, r)
	for _, at := range rs {
		md, _ := e.cut(k)
		if _, hit, _ := e.open(at); !hit {
			e.t.Fatalf("crashtest: %s: recovery issued %d durable operations the first time and fewer this time: it is not deterministic", e.where(k, at, r), r)
		}
		s, _, _ := e.open(never)
		e.check(md, s, crashed, k, at, r)
	}
	return len(rs)
}

// cut restores the snapshot and runs point k, leaving the device as the
// power failure left it.
func (e *explorer[S]) cut(k int) (Model[S], bool) {
	md, crashed, _ := e.run(k)
	if crashed != (k <= e.n) {
		e.t.Fatalf("crashtest: %s: the crash fired = %v, but the window holds %d durable operations: the workload is not deterministic", e.where(k, 0, 0), crashed, e.n)
	}
	if !crashed {
		e.crash() // the window ran out: the plug is pulled after it
	}
	return md, crashed
}

// run restores the snapshot, opens it and runs a fresh model with a crash
// armed before the k-th durable operation after arm. It returns the model,
// whether the crash fired, and how many durable operations the run issued
// after arm.
func (e *explorer[S]) run(k int) (md Model[S], crashed bool, ops int) {
	e.restore()
	s, hit, _ := e.open(never)
	if hit {
		e.t.Fatal("crashtest: opening the snapshot crashed")
	}
	md = e.c.Model()
	armed := false
	var err error
	crashed = e.m.RunToCrash(func() {
		err = md.Run(s, func() {
			armed = true
			e.m.SetCrashAfter(k)
		})
	})
	ops = k - e.m.CrashCountdown()
	e.m.SetCrashAfter(0)
	switch {
	case !armed:
		e.t.Fatal("crashtest: the workload never called arm")
	case err != nil:
		e.t.Fatalf("crashtest: %s: the workload failed: %v", e.where(k, 0, 0), err)
	}
	return md, crashed, ops
}

// open runs the case's recovery with a crash armed before its at-th durable
// operation. It returns the store, whether the crash fired, and how many
// durable operations recovery issued.
func (e *explorer[S]) open(at int) (s S, crashed bool, ops int) {
	var err error
	e.m.SetCrashAfter(at)
	crashed = e.m.RunToCrash(func() { s, err = e.c.Open(e.m) })
	ops = at - e.m.CrashCountdown()
	e.m.SetCrashAfter(0)
	if err != nil && !crashed {
		e.t.Fatalf("crashtest: recovery failed: %v", err)
	}
	return s, crashed, ops
}

// recoveryPoints returns where to crash the recovery of point k, which
// issued r durable operations: before each of them with
// EveryRecoveryPoint in the full suite, otherwise before one that depends
// on k alone.
func (e *explorer[S]) recoveryPoints(k, r int) []int {
	if r == 0 {
		return nil
	}
	if e.c.EveryRecoveryPoint && !testing.Short() {
		all := make([]int, r)
		for i := range all {
			all[i] = i + 1
		}
		return all
	}
	h := uint64(k) * 0x9e3779b97f4a7c15 // Fibonacci hashing spreads consecutive points
	return []int{1 + int((h>>32)%uint64(r))}
}

func (e *explorer[S]) check(md Model[S], s S, crashed bool, k, at, r int) {
	if err := md.Check(s, crashed); err != nil {
		e.t.Fatalf("crashtest: %s: %v", e.where(k, at, r), err)
	}
}

// where names a point, and the recovery point when at > 0, for a failure.
func (e *explorer[S]) where(k, at, r int) string {
	s := fmt.Sprintf("crash point %d of %d", k, e.n+1)
	if k == e.n+1 {
		s = fmt.Sprintf("point %d of %d (the window ran out)", k, e.n+1)
	}
	if at > 0 {
		s += fmt.Sprintf(", recovery crashed before durable operation %d of %d", at, r)
	}
	if e.seed != 0 {
		s += fmt.Sprintf(" (-short seed %d)", e.seed)
	}
	return s
}

// crash pulls the plug: the device keeps its durable image only.
func (e *explorer[S]) crash() {
	if err := e.m.Crash(); err != nil {
		e.t.Fatalf("crashtest: %v", err)
	}
}

// heapEnd returns the first byte past everything the heap can have written
// on a crashed device: its durable bump pointer, plus the block header an
// allocation stores there before it advances the bump.
func (e *explorer[S]) heapEnd() uint64 {
	a, err := pmem.Open(e.m)
	if err != nil {
		e.t.Fatalf("crashtest: %v", err)
	}
	return min(uint64(pmem.HeapBase+a.HeapUsed())+nvm.WordSize, uint64(e.m.Size()))
}

// restore returns the device to the snapshot: durable and cached words,
// dirty bits, coalescing window and countdown, so that a run repeats the
// same durable operations. It copies only the snapshot and zeroes only what
// the last run's heap reached, never the whole arena. A run that grew the
// arena gets a fresh device loaded with the setup's image instead.
func (e *explorer[S]) restore() {
	e.crash()
	if e.m.Size() != e.size {
		e.m = nvm.New(e.m.Config())
		if err := e.m.LoadImage(e.image); err != nil {
			e.t.Fatalf("crashtest: %v", err)
		}
		return
	}
	end := e.heapEnd()
	for i, w := range e.snap {
		if addr := uint64(i) * nvm.WordSize; e.m.Load64(addr) != w {
			e.m.StoreNT64(addr, w)
		}
	}
	for addr := uint64(len(e.snap)) * nvm.WordSize; addr < end; addr += nvm.WordSize {
		if e.m.Load64(addr) != 0 {
			e.m.StoreNT64(addr, 0)
		}
	}
	e.crash() // closes the coalescing window the stores opened
}

// Funcs is a Model made of two functions, for workloads whose per-run
// state fits in the closure that builds them.
type Funcs[S any] struct {
	Workload func(s S, arm func()) error
	Verify   func(s S, crashed bool) error
}

func (f Funcs[S]) Run(s S, arm func()) error     { return f.Workload(s, arm) }
func (f Funcs[S]) Check(s S, crashed bool) error { return f.Verify(s, crashed) }
