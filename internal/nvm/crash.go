package nvm

import (
	"errors"
	"math/bits"
	"sync/atomic"
)

// ErrNoPersistence is returned by crash-related operations when the device
// was created without Config.TrackPersistence.
var ErrNoPersistence = errors.New("nvm: persistence tracking disabled")

// crashSignal is the sentinel panic value used by injected crashes. It is
// unexported; use IsCrash to detect it in a recover handler.
type crashSignal struct{}

func (crashSignal) Error() string { return "nvm: injected crash" }

// IsCrash reports whether a recovered panic value is an injected NVM crash.
func IsCrash(v any) bool {
	_, ok := v.(crashSignal)
	return ok
}

// SetCrashAfter arms deterministic crash injection: the sentinel panic fires
// immediately before the n-th subsequent durable operation (non-temporal
// store, dirty-line flush, or fence). n <= 0 disarms injection.
//
// Because cached stores are lost on a crash anyway, the durable image can
// only change at durable operations, so crashing before each one covers
// every distinct crash state a real machine could expose.
func (m *Memory) SetCrashAfter(n int) {
	if n <= 0 {
		m.crashCountdown.Store(0)
		return
	}
	m.crashCountdown.Store(int64(n))
}

// CrashCountdown returns what is left of an armed injection's count: the
// injection fires before the CrashCountdown()-th next durable operation, and
// 0 means disarmed. Arming a count larger than a run needs and reading it
// back afterwards measures how many durable operations the run issued.
func (m *Memory) CrashCountdown() int { return int(m.crashCountdown.Load()) }

func (m *Memory) maybeCrash() {
	if m.crashCountdown.Load() <= 0 {
		return
	}
	if m.crashCountdown.Add(-1) == 0 {
		panic(crashSignal{})
	}
}

// Crash simulates a power failure: every cached (unflushed) write is
// discarded and the arena reverts to its durable image. Volatile bookkeeping
// (dirty bits, coalescing window, injection) is reset. Callers then run
// recovery against the surviving state.
//
// Only a dirty line can differ from the durable image — every other writer
// (StoreNT64, PunchHole, LoadImage, a flush) updates both views — so the
// revert walks the dirty bitmap and touches those lines alone, not the arena.
func (m *Memory) Crash() error {
	p := m.persistWords()
	if p == nil {
		return ErrNoPersistence
	}
	m.crashCountdown.Store(0)
	for bi := range m.dirty {
		for set := atomic.SwapUint64(&m.dirty[bi], 0); set != 0; set &= set - 1 {
			base := (uint64(bi)*64 + uint64(bits.TrailingZeros64(set))) * WordsPerLine
			for w := base; w < base+WordsPerLine; w++ {
				atomic.StoreUint64(&m.words[w], atomic.LoadUint64(&p[w]))
			}
		}
	}
	m.dirtyLines.Store(0)
	m.ntLine.Store(0)
	m.stats.crashes.Add(1)
	return nil
}

// RunToCrash runs fn, converting an injected crash panic into a normal
// return. It reports whether fn crashed. Any other panic is re-raised.
// On a crash the device is immediately reverted to its durable image, so
// the caller can proceed straight to recovery.
func (m *Memory) RunToCrash(fn func()) (crashed bool) {
	defer func() {
		if v := recover(); v != nil {
			if !IsCrash(v) {
				panic(v)
			}
			if err := m.Crash(); err != nil {
				panic(err)
			}
			crashed = true
		}
	}()
	fn()
	return false
}
