package core

import (
	"errors"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

// redoOnlyConfigs are the regimes the redo-only crash matrix sweeps: the
// headline NoForce/Batch pair with and without group commit, plus both
// policies on the Optimized log (Force exercises the END-before-data commit
// ordering, whose redo pass must replay a winner whose NT stores the crash
// cut short).
func redoOnlyConfigs() []Config {
	return []Config{
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, CommitMode: RedoOnly,
			BucketSize: 16, GroupSize: 4, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Batch, CommitMode: RedoOnly,
			BucketSize: 16, GroupSize: 4, GroupCommit: true, GroupCommitWindow: -1, RootBase: rootBase},
		{Policy: NoForce, Layers: OneLayer, LogKind: rlog.Optimized, CommitMode: RedoOnly,
			BucketSize: 16, RootBase: rootBase},
		{Policy: Force, Layers: OneLayer, LogKind: rlog.Optimized, CommitMode: RedoOnly,
			BucketSize: 16, RootBase: rootBase},
	}
}

// TestRedoOnlyConfig pins the mode's configuration contract: RedoOnly
// refuses the two-layer index (selective log-based rollback needs
// before-images the mode never writes), the fingerprint separates the two
// modes so a store is reopened under the protocol that wrote it, and the
// explicit Log call — whose old/new pair is meaningless without in-place
// writes — returns its sentinel.
func TestRedoOnlyConfig(t *testing.T) {
	m := nvm.New(nvm.Config{Size: 8 << 20, TrackPersistence: true})
	a := pmem.Format(m)
	bad := Config{Policy: Force, Layers: TwoLayer, LogKind: rlog.Optimized,
		CommitMode: RedoOnly, BucketSize: 16, RootBase: rootBase}
	if _, err := New(a, bad); err == nil {
		t.Fatal("RedoOnly + TwoLayer accepted")
	}

	cfg := redoOnlyConfigs()[0]
	tm, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tm.Begin()
	if err := x.Log(dataBlock(a, 1, 1), 0, 1); !errors.Is(err, ErrLogRedoOnly) {
		t.Fatalf("explicit Log under RedoOnly: %v, want ErrLogRedoOnly", err)
	}
	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	tm.Close()
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	a2, err := pmem.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.CommitMode = UndoRedo
	if _, _, err := Open(a2, other); err == nil {
		t.Fatal("undo/redo Open accepted a redo-only store")
	}
	if _, _, err := Open(a2, cfg); err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
}

// TestRedoOnlyCrashMatrix is the redo-only counterpart of
// TestSpanCrashMatrix: a transaction performs several buffered operations —
// two multi-word spans, a single-word write between them and a deferred
// deallocation — and the device crashes before every durable operation in
// turn, across Batch (with and without group commit) and Optimized under
// both policies. Whatever the crash point, recovery must land the
// transaction all-or-none; a transaction whose Commit returned must always
// be all-new (read-your-acked-writes), one rolled back before the crash and
// one left in flight must never leak a single word — their writes only ever
// existed in private buffers. Recovery itself must do zero undo work.
func TestRedoOnlyCrashMatrix(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for _, cfg := range redoOnlyConfigs() {
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
				d3 := dataBlock(a, words, 50)

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
					t3 := tm.Begin()
					// t1: a multi-op buffered transaction. Its two spans and
					// the lone word become separate redo records at commit.
					if err := t1.WriteBytes(d1, span(110)); err != nil {
						t.Error(err)
					}
					if err := t1.Write64(d1+(words-1)*8, 110+words-1); err != nil {
						t.Error(err)
					}
					if err := t1.WriteBytes(d1+8, span(111)[:8*(words-2)]); err != nil {
						t.Error(err)
					}
					if err := t1.Free(a.Alloc(64)); err != nil {
						t.Error(err)
					}
					// t2 writes and rolls back: a pure buffer discard, no log
					// traffic, nothing for the crash to tear.
					if err := t2.WriteBytes(d2, span(130)); err != nil {
						t.Error(err)
					}
					if err := t2.Rollback(); err != nil {
						t.Error(err)
					}
					// t3 left in flight: its buffer dies with the process.
					if err := t3.WriteBytes(d3, span(150)); err != nil {
						t.Error(err)
					}
					if err := t1.Commit(); err != nil {
						t.Error(err)
					}
					committed1 = true
				})
				m.SetCrashAfter(0)

				a2, err := pmem.Open(m)
				if err != nil {
					t.Fatalf("crashAt=%d: %v", crashAt, err)
				}
				tm2, rs, err := Open(a2, cfg)
				if err != nil {
					t.Fatalf("crashAt=%d: Open: %v", crashAt, err)
				}
				if rs.Undone != 0 || rs.CLRRecords != 0 {
					t.Fatalf("crashAt=%d: redo-only recovery did undo work: Undone=%d CLRRecords=%d",
						crashAt, rs.Undone, rs.CLRRecords)
				}

				// t1 all-or-none; its final image is span(110) with word 1..
				// words-2 overwritten by span(111)'s run.
				first := m.Load64(d1)
				isNew := first == 110
				if !isNew && first != 10 {
					t.Fatalf("crashAt=%d: t1 word0 = %d: neither old nor new", crashAt, first)
				}
				if committed1 && !isNew {
					t.Fatalf("crashAt=%d: acked commit lost", crashAt)
				}
				for i := uint64(0); i < words; i++ {
					want := 10 + i
					if isNew {
						switch {
						case i == 0 || i == words-1:
							want = 110 + i
						default:
							want = 111 + (i - 1)
						}
					}
					if got := m.Load64(d1 + i*8); got != want {
						t.Fatalf("crashAt=%d: t1 torn: word %d = %d, want %d", crashAt, i, got, want)
					}
				}
				// t2 (rolled back) and t3 (in flight) must never surface.
				for i := uint64(0); i < words; i++ {
					if got := m.Load64(d2 + i*8); got != 30+i {
						t.Fatalf("crashAt=%d: rolled-back write leaked: word %d = %d", crashAt, i, got)
					}
					if got := m.Load64(d3 + i*8); got != 50+i {
						t.Fatalf("crashAt=%d: in-flight write leaked: word %d = %d", crashAt, i, got)
					}
				}

				// The recovered manager must be fully usable in the same mode.
				nt := tm2.Begin()
				if err := nt.WriteBytes(d1, span(210)); err != nil {
					t.Fatalf("crashAt=%d: post-recovery write: %v", crashAt, err)
				}
				if got := nt.Read64(d1); got != 210 {
					t.Fatalf("crashAt=%d: post-recovery read-your-writes: %d", crashAt, got)
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

// TestRedoOnlyCheckpointPrivacy pins the publish-at-commit rule against the
// checkpointer: a paced checkpoint running beside an uncommitted redo-only
// transaction must not leak the private buffer into the durable image — the
// buffer is volatile Go memory the checkpoint never sees — while a
// committed transaction's writes must survive the checkpoint + crash as
// usual, recovered without undo work.
func TestRedoOnlyCheckpointPrivacy(t *testing.T) {
	cfg := redoOnlyConfigs()[0] // NoForce/Batch: the mode checkpoints exist for
	m, a, tm := newTM(t, cfg)
	blk := dataBlock(a, 4, 1)

	// Committed baseline write.
	c := tm.Begin()
	if err := c.Write64(blk, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// Uncommitted buffered write, checkpoint racing it.
	x := tm.Begin()
	if err := x.Write64(blk+8, 999); err != nil {
		t.Fatal(err)
	}
	tm.CheckpointPaced(1)
	if got := m.Load64(blk + 8); got == 999 {
		t.Fatal("checkpoint published a private redo buffer")
	}

	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	a2, err := pmem.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	tm2, rs, err := Open(a2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Undone != 0 || rs.CLRRecords != 0 {
		t.Fatalf("undo work after checkpoint crash: %+v", rs)
	}
	if got := tm2.Read64(blk); got != 100 {
		t.Fatalf("checkpointed commit lost: %d", got)
	}
	if got := tm2.Read64(blk + 8); got == 999 {
		t.Fatal("uncommitted buffer surfaced after recovery")
	}
}
