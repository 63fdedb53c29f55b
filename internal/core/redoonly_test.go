package core

import (
	"errors"
	"testing"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
	"github.com/rewind-db/rewind/internal/rlog"
)

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
