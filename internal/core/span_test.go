package core

import (
	"errors"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// spanConfigs is the crash-matrix design space the span refactor must
// cover: every one-layer log kind under both policies. (The two-layer
// configuration stores span records in the AAVLT through the same
// appendShard path; the all-config rollback test below covers it.)
func spanConfigs() []Config {
	var out []Config
	for _, kind := range []rlog.Kind{rlog.Simple, rlog.Optimized, rlog.Batch} {
		for _, policy := range []Policy{NoForce, Force} {
			out = append(out, Config{Policy: policy, Layers: OneLayer, LogKind: kind,
				BucketSize: 16, GroupSize: 4, RootBase: rootBase})
		}
	}
	return out
}

func bytesImage(vals []uint64) []byte {
	p := make([]byte, len(vals)*8)
	for i, v := range vals {
		for b := 0; b < 8; b++ {
			p[i*8+b] = byte(v >> (8 * uint(b)))
		}
	}
	return p
}

// TestWriteBytesLogsOneSpanRecord is the granularity contract: a multi-word
// WriteBytes costs one log append, not one per word.
func TestWriteBytesLogsOneSpanRecord(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			_, a, tm := newTM(t, cfg)
			data := dataBlock(a, 8, 100)

			x := tm.Begin()
			before := tm.Stats().Shards[0].Appends
			vals := []uint64{200, 201, 202, 203, 204, 205, 206, 207}
			if err := x.WriteBytes(data, bytesImage(vals)); err != nil {
				t.Fatal(err)
			}
			if d := tm.Stats().Shards[0].Appends - before; d != 1 {
				t.Fatalf("8-word WriteBytes cost %d log appends, want 1", d)
			}
			for i := uint64(0); i < 8; i++ {
				if got := tm.Read64(data + i*8); got != 200+i {
					t.Fatalf("word %d = %d after span write", i, got)
				}
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpanRollbackRestoresWholeSpan writes a span and rolls back: every
// word must return to its old value, in every configuration (the span CLR
// path, including the two-layer chain walk).
func TestSpanRollbackRestoresWholeSpan(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			_, a, tm := newTM(t, cfg)
			data := dataBlock(a, 8, 100)

			x := tm.Begin()
			vals := []uint64{200, 201, 202, 203, 204, 205, 206, 207}
			if err := x.WriteBytes(data, bytesImage(vals)); err != nil {
				t.Fatal(err)
			}
			if err := x.Rollback(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 8; i++ {
				if got := tm.Read64(data + i*8); got != 100+i {
					t.Fatalf("word %d = %d after rollback, want %d", i, got, 100+i)
				}
			}
		})
	}
}

// TestWriteBytesTailPartialWord pins the documented tail semantics: a
// length that is not a multiple of 8 read-modifies-writes the final word,
// so the bytes past len(p) keep their current memory contents — visible
// immediately, after commit, and (as old-image) after rollback.
func TestWriteBytesTailPartialWord(t *testing.T) {
	for _, cfg := range testConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			_, a, tm := newTM(t, cfg)
			data := dataBlock(a, 3, 0)
			m := tm.Mem()
			m.StoreNT64(data, 0x1111111111111111)
			m.StoreNT64(data+8, 0x2222222222222222)
			m.StoreNT64(data+16, 0x3333333333333333)
			m.Fence()

			// 11 bytes: one full word plus a 3-byte tail.
			x := tm.Begin()
			p := []byte{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xb0, 0xb1, 0xb2}
			if err := x.WriteBytes(data, p); err != nil {
				t.Fatal(err)
			}
			// Low three bytes from p, upper five kept from the old word.
			wantTail := uint64(0xb0) | uint64(0xb1)<<8 | uint64(0xb2)<<16 | 0x2222222222000000
			if got := tm.Read64(data + 8); got != wantTail {
				t.Fatalf("tail word = %#x, want %#x", got, wantTail)
			}
			if got := tm.Read64(data); got != 0xa7a6a5a4a3a2a1a0 {
				t.Fatalf("full word = %#x", got)
			}
			if got := tm.Read64(data + 16); got != 0x3333333333333333 {
				t.Fatalf("word past the write changed: %#x", got)
			}
			if err := x.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := tm.Read64(data + 8); got != 0x2222222222222222 {
				t.Fatalf("tail word not restored by rollback: %#x", got)
			}

			// Unaligned writes are rejected with the documented sentinel.
			y := tm.Begin()
			if err := y.WriteBytes(data+4, p); !errors.Is(err, ErrUnalignedWrite) {
				t.Fatalf("unaligned WriteBytes: %v, want ErrUnalignedWrite", err)
			}
			// Empty writes log nothing.
			before := tm.Stats().Shards[0].Appends
			if err := y.WriteBytes(data, nil); err != nil {
				t.Fatal(err)
			}
			if d := tm.Stats().Shards[0].Appends - before; d != 0 {
				t.Fatalf("empty WriteBytes logged %d records", d)
			}
			if err := y.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandleFastPathSemantics pins the handle contract: a finished handle
// is rejected with ErrTxnFinished, and Batch refuses the explicit Log.
func TestHandleFastPathSemantics(t *testing.T) {
	cfg := testConfigs()[1] // 1L-NFP/Optimized
	_, a, tm := newTM(t, cfg)
	data := dataBlock(a, 2, 10)

	x := tm.Begin()
	if err := x.Write64(data, 77); err != nil {
		t.Fatal(err)
	}
	if err := x.Write64(data+8, 78); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("second Commit: %v, want ErrTxnFinished", err)
	}
	if err := x.Write64(data, 1); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("write on finished handle: %v, want ErrTxnFinished", err)
	}

	// Batch rejects the explicit Log call.
	btm, err := New(a, Config{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch,
		BucketSize: 16, GroupSize: 4, RootBase: 24})
	if err != nil {
		t.Fatal(err)
	}
	b := btm.Begin()
	if err := b.Log(data, 0, 1); !errors.Is(err, ErrLogWithBatch) {
		t.Fatalf("handle Log under Batch: %v, want ErrLogWithBatch", err)
	}
}

// TestSpanCrashMatrix is the satellite crash-injection matrix: a
// transaction performs a multi-word transactional write (one span record),
// the device crashes before every durable operation in turn — for all
// three LogKinds under Force and NoForce — and recovery must restore
// either all of the span or none of it. A second, committed span
// transaction must always be all-new once Commit returned, and a third
// left in flight must always be all-old.
func TestSpanCrashMatrix(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for _, cfg := range spanConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			const words = 10
			for crashAt := 1; ; crashAt += stride {
				m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
				a := pmem.Format(m)
				tm, err := New(a, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d1 := dataBlock(a, words, 10)
				d2 := dataBlock(a, words, 30)

				span := func(base uint64) []byte {
					vals := make([]uint64, words)
					for i := range vals {
						vals[i] = base + uint64(i)
					}
					return bytesImage(vals)
				}

				committed1 := false
				m.SetCrashAfter(crashAt)
				crashed := m.RunToCrash(func() {
					t1 := tm.Begin()
					t2 := tm.Begin()
					if err := t1.WriteBytes(d1, span(110)); err != nil {
						t.Error(err)
					}
					if err := t2.WriteBytes(d2, span(130)); err != nil {
						t.Error(err)
					}
					if err := t1.Commit(); err != nil {
						t.Error(err)
					}
					committed1 = true
					// t2 left in flight.
				})
				m.SetCrashAfter(0)

				a2, err := pmem.Open(m)
				if err != nil {
					t.Fatalf("crashAt=%d: %v", crashAt, err)
				}
				tm2, _, err := Open(a2, cfg)
				if err != nil {
					t.Fatalf("crashAt=%d: Open: %v", crashAt, err)
				}

				check := func(name string, base, oldBase, newBase uint64, mustBeNew, mustBeOld bool) {
					t.Helper()
					first := m.Load64(base)
					isNew := first == newBase
					isOld := first == oldBase
					if !isNew && !isOld {
						t.Fatalf("crashAt=%d: %s word0 = %d: neither old nor new", crashAt, name, first)
					}
					if mustBeNew && !isNew {
						t.Fatalf("crashAt=%d: %s lost committed span", crashAt, name)
					}
					if mustBeOld && !isOld {
						t.Fatalf("crashAt=%d: %s kept uncommitted span", crashAt, name)
					}
					want := oldBase
					if isNew {
						want = newBase
					}
					for i := uint64(0); i < words; i++ {
						if got := m.Load64(base + i*8); got != want+i {
							t.Fatalf("crashAt=%d: %s span torn: word %d = %d, want %d",
								crashAt, name, i, got, want+i)
						}
					}
				}
				check("t1", d1, 10, 110, committed1, false)
				check("t2", d2, 30, 130, false, true) // never committed

				// The recovered manager must be fully usable, spans included.
				nt := tm2.Begin()
				if err := nt.WriteBytes(d1, span(210)); err != nil {
					t.Fatalf("crashAt=%d: post-recovery span write: %v", crashAt, err)
				}
				if err := nt.Commit(); err != nil {
					t.Fatalf("crashAt=%d: post-recovery commit: %v", crashAt, err)
				}
				if !crashed {
					return
				}
			}
		})
	}
}

// TestSpanDoubleCrashDuringRecovery crashes recovery of a torn span state
// at increasing depths and verifies convergence (span CLR redo included).
func TestSpanDoubleCrashDuringRecovery(t *testing.T) {
	for _, cfg := range spanConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			m := nvm.New(nvm.Config{Size: 16 << 20, TrackPersistence: true})
			a := pmem.Format(m)
			tm, err := New(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := dataBlock(a, 6, 10)
			m.SetCrashAfter(20)
			m.RunToCrash(func() {
				x := tm.Begin()
				vals := []uint64{110, 111, 112, 113, 114, 115}
				if err := x.WriteBytes(data, bytesImage(vals)); err != nil {
					t.Error(err)
				}
				x.Commit()
			})
			for depth := 1; depth <= 40; depth += 7 {
				m.SetCrashAfter(depth)
				m.RunToCrash(func() {
					a2, err := pmem.Open(m)
					if err != nil {
						t.Fatal(err)
					}
					Open(a2, cfg) //nolint:errcheck // crash expected mid-way
				})
			}
			m.SetCrashAfter(0)
			a3, err := pmem.Open(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(a3, cfg); err != nil {
				t.Fatal(err)
			}
			first := m.Load64(data)
			want := uint64(10)
			if first == 110 {
				want = 110
			}
			for i := uint64(0); i < 6; i++ {
				if got := m.Load64(data + i*8); got != want+i {
					t.Fatalf("span torn after repeated recovery crashes: word %d = %d", i, got)
				}
			}
		})
	}
}
