package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
)

// Tests of the record rule (package comment): a write stores and logs
// [length word | used payload] and nothing past it, so what a PUT costs
// follows the value, and a value's length may change freely under crashes
// and rollbacks.

// patterned returns n bytes no other (n, salt) pair shares a run with, so a
// splice of two values cannot pass for either.
func patterned(n int, salt byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = salt + byte(i*7)
	}
	return v
}

// logBytesOf returns what one more call of fn appends to the log.
func logBytesOf(st *rewind.Store, fn func()) int64 {
	before := st.LogBytes()
	fn()
	return st.LogBytes() - before
}

// TestLogBytesFollowValueLength is the write path's deterministic gate: an
// overwrite logs one span of the length word and the used payload, its END
// folded in — 88 B for 8 bytes (48 redo-only), 872 B for 400 (440) —
// whatever MaxValue the slot was sized for, and an overwrite Put allocates
// at most 6 objects (10 before the rule; the record image, the span's two
// word slices and the transaction's table entry are gone). It runs under
// -short.
func TestLogBytesFollowValueLength(t *testing.T) {
	open := func(mode rewind.CommitMode, maxValue int) (*rewind.Store, *Store) {
		st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20, CommitMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Create(st, Config{Stripes: 1, MaxValue: maxValue})
		if err != nil {
			t.Fatal(err)
		}
		return st, s
	}
	for _, c := range []struct {
		mode        rewind.CommitMode
		small, wide int64
	}{{rewind.UndoRedo, 88, 872}, {rewind.RedoOnly, 48, 440}} {
		var atDefault int64
		for _, maxValue := range []int{0, 64, 512, 4096} {
			st, s := open(c.mode, maxValue)
			if err := s.Put(1, patterned(s.cfg.MaxValue, 1)); err != nil {
				t.Fatal(err)
			}
			got := logBytesOf(st, func() {
				if err := s.Put(1, patterned(8, 2)); err != nil {
					t.Fatal(err)
				}
			})
			if maxValue == 0 {
				atDefault = got
			}
			if got > c.small || got != atDefault {
				t.Errorf("mode %v MaxValue %d: 8-byte overwrite logs %d B, want %d (the default's) and <= %d",
					c.mode, s.cfg.MaxValue, got, atDefault, c.small)
			}
		}
		st, s := open(c.mode, 0)
		if err := s.Put(1, patterned(8, 1)); err != nil {
			t.Fatal(err)
		}
		if got := logBytesOf(st, func() {
			if err := s.Put(1, patterned(400, 2)); err != nil {
				t.Fatal(err)
			}
		}); got > c.wide {
			t.Errorf("mode %v: 400-byte overwrite logs %d B, want <= %d", c.mode, got, c.wide)
		}
	}

	// The device bill of the same overwrite in steady state, inside one log
	// bucket: the records pack into the bucket's area, so a commit writes
	// the lines its 88 (48) log bytes occupy, one line of cells and the
	// persisted index — no allocator words. While each record was a pmem
	// block of its own this loop read 9.39 line writes, and 5.50 (4.75)
	// while the END was a record of its own; now 4.25 (3.75).
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		st, s := open(mode, 0)
		for i := 0; i < 2; i++ { // the insert, then one overwrite to open the bucket
			if err := s.Put(1, patterned(8, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		const n = 64
		dev := st.Stats()
		for i := 0; i < n; i++ {
			if err := s.Put(1, patterned(8, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if got := float64(st.Stats().Sub(dev).LineWrites) / n; got > 4.25 {
			t.Errorf("mode %v: steady-state 8-byte overwrite costs %.2f line writes, want <= 4.25", mode, got)
		}
	}

	// Shaped as rewindd serves — 64-record flush groups, group commit,
	// bursts of 16 published overwrites behind one wait — a commit issues
	// no pmem.Alloc or Free at all: the only non-temporal store left is the
	// burst's one persisted-index update (the parent paid 9.5 per commit).
	st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20, GroupSize: 64, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, Config{Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	burst := func() {
		var last rewind.Ticket
		for i := 0; i < 16; i++ {
			if last, err = s.PublishPut(1, patterned(8, byte(i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		s.WaitDurable(last, nil)
	}
	burst()
	dev := st.Stats()
	for i := 0; i < 4; i++ {
		burst()
	}
	if got := float64(st.Stats().Sub(dev).NTStores) / 64; got > 0.2 {
		t.Errorf("pipelined 8-byte overwrite issues %.2f non-temporal stores per commit, want <= 0.2: the allocator is back on the commit path", got)
	}

	_, s = open(rewind.UndoRedo, 0)
	v := patterned(16, 3)
	if err := s.Put(1, v); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 6
	if got := testing.AllocsPerRun(200, func() {
		if err := s.Put(1, v); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("overwrite Put allocates %.0f objects, want <= %d", got, maxAllocs)
	}
}

// TestOverwriteLengthChangeCrashMatrix walks one key through 400 B → 16 B →
// 400 B → 0 B and injects a crash before EVERY durable operation of each
// step, in both commit modes, with the step either committed or explicitly
// rolled back after its tree write: the recovered value is byte for byte
// the last acked one (or, for a committing step, the one in flight) — never
// a short value carrying a stale tail, never a long one missing its own.
func TestOverwriteLengthChangeCrashMatrix(t *testing.T) {
	values := [][]byte{patterned(400, 1), patterned(16, 2), patterned(400, 3), {}}
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		for step := 1; step < len(values); step++ {
			for _, rollback := range []bool{false, true} {
				name := fmt.Sprintf("mode%v/%dB-to-%dB/rollback=%v", mode, len(values[step-1]), len(values[step]), rollback)
				t.Run(name, func(t *testing.T) {
					n := crashtest.Explore(t, crashCase(rewind.Options{
						ArenaSize: 2 << 20, GroupCommit: true, GroupCommitWindow: 0, GroupCommitMax: 1,
						CommitMode: mode,
					}, Config{Stripes: 1, MaxValue: 400}, nil, func() crashtest.Model[*Store] {
						return &lengthRun{values: values[:step+1], rollback: rollback}
					}))
					// A redo-only rollback drops a private buffer: no durable
					// operation to crash before, by design.
					if n < 2 && !(rollback && mode == rewind.RedoOnly) {
						t.Fatalf("only %d durable operations in the step; injection is not covering it", n)
					}
				})
			}
		}
	}
}

var errProbeRollback = errors.New("probe: roll back")

// lengthRun writes the acked history values[:len-1] of the probed key, with
// neighbours on both sides of its slot — a write that ran past its record
// would land in theirs — then the step to the last value, committed or
// rolled back after its tree write.
type lengthRun struct {
	md       crashtest.KVModel
	values   [][]byte
	rollback bool
}

func (r *lengthRun) Run(s *Store, arm func()) error {
	const key = 5
	for k := uint64(1); k <= 9; k++ {
		if k != key {
			r.md.Plan(crashtest.Put(k, patterned(int(k)*40, byte(k))))
		}
	}
	next := r.values[len(r.values)-1]
	for _, v := range r.values[:len(r.values)-1] {
		r.md.Plan(crashtest.Put(key, v))
	}
	for r.md.Issued < len(r.md.Ops) {
		if err := r.md.Send(apply(s)); err != nil {
			return err
		}
	}
	arm()
	if !r.rollback {
		r.md.Plan(crashtest.Put(key, next))
		if err := r.md.Send(apply(s)); err != nil {
			return fmt.Errorf("overwrite rejected: %v", err)
		}
		return r.md.Check(s) // in place, before any crash
	}
	sp := s.stripeOf(key)
	_, err := s.updatePinned(sp, nil, func(tx *rewind.Tx) error {
		if _, err := sp.tree.Insert(tx, key, s.encode(nil, next)); err != nil {
			return err
		}
		return errProbeRollback
	})
	if !errors.Is(err, errProbeRollback) {
		return fmt.Errorf("rolled-back overwrite returned %v", err)
	}
	return r.md.Check(s)
}

func (r *lengthRun) Check(s *Store, crashed bool) error { return r.md.Check(s) }

// TestRecordLengthsAgainstModel drives seeded random-length writes through
// every write door — Put, Delete, CAS, Batch, an interactive transaction —
// against a map, with splits, merges, a compaction step and a crash in the
// sequence, and reads everything back through every read door: Get, GetAt at
// the last partial word, Scan, and CAS's own compare.
func TestRecordLengthsAgainstModel(t *testing.T) {
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) { runLengthModel(t, mode, 20251001) })
	}
}

func runLengthModel(t *testing.T, mode rewind.CommitMode, seed int64) {
	cfg := Config{Stripes: 1, MaxValue: 200}
	st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20, CommitMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	model := map[uint64][]byte{}
	// Lengths crowd the word boundaries and both ends of the slot.
	randValue := func() []byte {
		n := rng.Intn(cfg.MaxValue + 1)
		switch rng.Intn(4) {
		case 0:
			n = []int{0, 1, 7, 8, 9, 15, 16, 17, cfg.MaxValue - 1, cfg.MaxValue}[rng.Intn(10)]
		case 1:
			n = rng.Intn(24)
		}
		return patterned(n, byte(rng.Intn(256)))
	}
	verify := func(when string) {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		keys := make([]uint64, 0, len(model))
		for k, want := range model {
			keys = append(keys, k)
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%d) = %d bytes (present=%v), want %d", when, k, len(got), ok, len(want))
			}
			off := uint64(len(want)) &^ 7
			if off == uint64(len(want)) && off > 0 {
				off -= 8
			}
			chunk, total, _, ok := s.GetAt(k, off, cfg.MaxValue)
			if !ok || total != uint64(len(want)) || !bytes.Equal(chunk, want[off:]) {
				t.Fatalf("%s: GetAt(%d, %d) = %x of %d (present=%v), want %x of %d",
					when, k, off, chunk, total, ok, want[off:], len(want))
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		pairs := s.Scan(0, 1<<62, 0)
		if len(pairs) != len(keys) {
			t.Fatalf("%s: Scan returned %d pairs, model has %d", when, len(pairs), len(keys))
		}
		for i, p := range pairs {
			if p.Key != keys[i] || !bytes.Equal(p.Value, model[p.Key]) {
				t.Fatalf("%s: Scan pair %d = key %d with %d bytes, want key %d with %d",
					when, i, p.Key, len(p.Value), keys[i], len(model[keys[i]]))
			}
		}
	}
	// step applies one random mutation to store and model; keys below
	// keyspace, deletes with probability delPct/100.
	step := func(keyspace, delPct int) {
		k := uint64(rng.Intn(keyspace) + 1)
		if rng.Intn(100) < delPct {
			_, had := model[k]
			if found, err := s.Delete(k); err != nil || found != had {
				t.Fatalf("Delete(%d) = %v, %v; model had it: %v", k, found, err, had)
			}
			delete(model, k)
			return
		}
		v := randValue()
		switch rng.Intn(5) {
		case 0: // CAS against the model's value: must apply
			ok, err := s.CompareAndSwap(k, model[k], v)
			if err != nil || !ok {
				t.Fatalf("CAS(%d) expecting the model's %d bytes = %v, %v", k, len(model[k]), ok, err)
			}
			model[k] = v
		case 1: // CAS against a value one byte off: must miss
			if cur, had := model[k]; had {
				ok, err := s.CompareAndSwap(k, append(append([]byte{}, cur...), 0), v)
				if err != nil || ok {
					t.Fatalf("CAS(%d) expecting a longer value = %v, %v", k, ok, err)
				}
			}
		case 2:
			k2 := uint64(rng.Intn(keyspace) + 1)
			v2 := randValue()
			ops := []Op{{Key: k, Value: v}, {Key: k2, Value: v2}, {Key: k + 1, Delete: true}}
			if err := s.Batch(ops); err != nil {
				t.Fatal(err)
			}
			model[k] = v // in op order: a repeated key keeps the later op
			model[k2] = v2
			delete(model, k+1)
		case 3:
			tx := s.BeginTxn()
			cur, had, err := tx.GetForUpdate(k)
			if err != nil || had != (model[k] != nil) || !bytes.Equal(cur, model[k]) {
				t.Fatalf("txn read of %d = %d bytes, %v, %v", k, len(cur), had, err)
			}
			if err := tx.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		default:
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}

	tree := s.stripes[0].tree
	for i := 0; i < 1500; i++ { // grow: 300 keys over 16-record leaves split many times
		step(300, 10)
		if i%250 == 0 {
			verify(fmt.Sprintf("grow op %d", i))
		}
	}
	grown := tree.Depth()
	if grown < 2 {
		t.Fatalf("tree depth %d after the grow phase: no leaf ever split", grown)
	}
	verify("grown")
	for i := 0; i < 1500; i++ { // churn lengths in place, thinning out
		step(300, 40)
	}
	verify("churned")

	st.Checkpoint() // retire the history's log records: they are the dead space
	res, err := s.CompactStep(CompactConfig{DeadFraction: 0.01, MinDeadBytes: 1})
	if err != nil || !res.Compacted || res.Moved == 0 {
		t.Fatalf("CompactStep = %+v, %v; want nodes moved", res, err)
	}
	verify("compacted")

	for k := uint64(4); k <= 301; k++ { // shrink to three records: leaves merge, the root collapses
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	if d := tree.Depth(); d != 1 {
		t.Fatalf("tree depth %d after deleting down to %d keys (was %d): leaves never merged", d, len(model), grown)
	}
	for i := 0; i < 200; i++ {
		step(3, 10)
	}
	verify("shrunk")

	mem := st.Mem()
	mem.Crash()
	st2, err := rewind.Reattach(st.Options(), mem)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = Attach(st2, cfg); err != nil {
		t.Fatal(err)
	}
	verify("recovered")
}

// TestParentImageReadsBack: records written the old way — full width, zero
// filled — read back identically and take shorter and longer overwrites.
func TestParentImageReadsBack(t *testing.T) {
	s := newKV(t, 1, false)
	tree := s.stripes[0].tree
	full := func(v []byte) []byte {
		rec := make([]byte, s.cfg.valueSize())
		copy(rec, s.encode(nil, v))
		return rec
	}
	want := map[uint64][]byte{}
	for k := uint64(1); k <= 40; k++ {
		want[k] = patterned(int(k)+20, byte(k))
		if _, err := tree.InsertAtomic(k, full(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: Get(%d) = %x, %v; want %x", when, k, got, ok, v)
			}
		}
	}
	check("as written")
	for k := uint64(1); k <= 40; k++ {
		want[k] = patterned(int(k%3)*30+1, byte(k+100)) // 1, 31 or 61 bytes: shorter and longer
		if err := s.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	check("overwritten")
}

// The kv rows of the cost ledger (ROADMAP item 1): what one Put bills the
// device, by value length, beside the wall clock and allocations `go test
// -bench` reports itself. The store is the daemon's default shape
// (8 stripes, MaxValue 512, undo+redo, no group commit so every Put pays
// its own flush); checkpoints between 2048-op slices keep the log from
// filling the arena and stay outside both clocks.
func benchmarkPut(b *testing.B, valueLen int, insert bool) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 256 << 20, MaxArena: 2 << 30})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Create(st, Config{})
	if err != nil {
		b.Fatal(err)
	}
	const hot = 1024
	v := patterned(valueLen, 1)
	for k := uint64(0); k < hot; k++ {
		if err := s.Put(k, v); err != nil {
			b.Fatal(err)
		}
	}
	var logB, lineWrites, fences, simNs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		dev, log := st.Stats(), st.LogBytes()
		for end := min(b.N, i+2048); i < end; i++ {
			k := uint64(i % hot)
			if insert {
				k = uint64(hot + i)
			}
			if err := s.Put(k, v); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d := st.Stats().Sub(dev)
		logB += st.LogBytes() - log
		lineWrites, fences, simNs = lineWrites+d.LineWrites, fences+d.Fences, simNs+d.SimulatedNS
		st.Checkpoint()
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(logB)/n, "logB/op")
	b.ReportMetric(float64(lineWrites)/n, "lineWrites/op")
	b.ReportMetric(float64(fences)/n, "fences/op")
	b.ReportMetric(float64(simNs)/n, "simNs/op")
}

func BenchmarkPutOverwrite(b *testing.B) {
	for _, n := range []int{8, 100, 400} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) { benchmarkPut(b, n, false) })
	}
}

func BenchmarkPutInsert(b *testing.B) {
	for _, n := range []int{8, 400} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) { benchmarkPut(b, n, true) })
	}
}
