package kv

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
)

// TestGrowUnderLoad is the growth gate CI runs in -short: a store created
// at 2 MiB keeps accepting writes past its initial arena, growing in
// 1 MiB extents, and every key written across the growth boundary reads
// back exactly. Growth is demand-driven — no manual trigger.
func TestGrowUnderLoad(t *testing.T) {
	const initial = 2 << 20
	st, err := rewind.Open(rewind.Options{
		ArenaSize: initial,
		MaxArena:  16 << 20,
		GrowStep:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := Create(st, Config{Stripes: 2, MaxValue: 64})
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for k := uint64(1); ; k++ {
		if err := s.Put(k, val64(k)); err != nil {
			t.Fatalf("Put(%d) failed below the cap: %v", k, err)
		}
		n = k
		// Keep writing well past the first growth so keys straddle the
		// extent boundary on both sides.
		if st.Mem().Size() > 2*initial && k%1024 == 0 {
			break
		}
	}
	ai := st.ArenaInfo()
	if ai.Grows == 0 || ai.Segments < 2 {
		t.Fatalf("arena never grew: %+v", ai)
	}
	if ai.Size <= initial || ai.Size > ai.MaxSize {
		t.Fatalf("arena size %d out of range (initial %d, cap %d)", ai.Size, initial, ai.MaxSize)
	}
	for k := uint64(1); k <= n; k++ {
		v, ok := s.Get(k)
		if !ok || !bytes.Equal(v, val64(k)) {
			t.Fatalf("key %d lost or corrupted across growth", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Allocator().CheckHeap(); err != nil {
		t.Fatal(err)
	}
}

// growArena is TestGrowCrashMatrix's initial arena: small, so the store a
// run starts from holds only a few hundred keys.
const growArena = 256 << 10

// TestGrowCrashMatrix sweeps injected crashes through the window of puts
// that spans the first arena growth, in both commit modes. Each put must
// be all-or-none across the crash, the recovered store must retain the
// grown extents it durably added, and the heap must stay walkable.
func TestGrowCrashMatrix(t *testing.T) {
	const ckptEvery = 16
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		opts := rewind.Options{ArenaSize: growArena, MaxArena: 4 * growArena, GrowStep: growArena, CommitMode: mode}
		cfg := Config{Stripes: 2, MaxValue: 64}
		// fill puts keys from+1..to, checkpointing after every ckptEvery-th
		// key, so the store a run starts from keeps no long log whose
		// recovery would dominate the run.
		fill := func(s *Store, from, to uint64) error {
			for k := from + 1; k <= to; k++ {
				if err := s.Put(k, val64(k)); err != nil {
					return err
				}
				if k%ckptEvery == 0 {
					s.Rewind().Checkpoint()
				}
			}
			return nil
		}
		// Dry run: how many puts of that shape trigger the first growth.
		// Allocation is deterministic, so every run below replays it.
		st, err := rewind.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Create(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var nGrow uint64
		for nGrow = 0; st.Mem().Size() == growArena; nGrow++ {
			if err := fill(s, nGrow, nGrow+1); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		if nGrow < 64 {
			t.Fatalf("mode %v: growth after only %d puts; arena too small for a meaningful prefix", mode, nGrow)
		}
		t.Logf("mode %v: first growth at put %d", mode, nGrow)
		// The window opens 8 puts ahead of the growth and ends 16 puts past
		// it. It checkpoints nothing, so the log only grows and the arena
		// grows inside it, at put nGrow or before.
		from := nGrow - 8
		crashtest.Explore(t, crashCase(opts, cfg, func(s *Store) error { return fill(s, 0, from) },
			func() crashtest.Model[*Store] { return &growRun{from: from, last: nGrow + 16} }))
	}
}

type growRun struct {
	md         crashtest.KVModel
	from, last uint64
}

func (r *growRun) Run(s *Store, arm func()) error {
	for k := uint64(1); k <= r.last; k++ {
		r.md.Plan(crashtest.Put(k, val64(k)))
	}
	r.md.Issued, r.md.Acked = int(r.from), int(r.from) // by Setup
	if sz := s.Rewind().Mem().Size(); sz != growArena {
		return fmt.Errorf("the arena grew to %d before the window", sz)
	}
	arm()
	for r.md.Issued < len(r.md.Ops) {
		if err := r.md.Send(apply(s)); err != nil {
			return err
		}
	}
	return nil
}

func (r *growRun) Check(s *Store, crashed bool) error {
	st := s.Rewind()
	if sz := st.Mem().Size(); sz < growArena {
		return fmt.Errorf("arena shrank to %d", sz)
	}
	if !crashed && st.Mem().Size() <= growArena {
		return fmt.Errorf("full window ran but arena never grew")
	}
	if err := st.Allocator().CheckHeap(); err != nil {
		return err
	}
	return r.md.Check(s)
}
