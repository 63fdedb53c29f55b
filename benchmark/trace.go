package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/btree"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/core"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/rlog"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// The traced run is the cost ledger of ROADMAP item 1: the workload's op
// stream replayed in one process, on one goroutine, at each layer boundary
// in turn, with a span around every call the benchmark makes. A layer's self
// cost is its row minus the row beneath. Each row gets the next window of
// the stream, so a churn row never inserts a key an earlier row left behind.
// Rows beneath btree have no keys to work from: they replay the log records,
// allocations and device operations the kv row was counted making, per
// write.

// span is one call across a layer boundary, as written to the trace file.
type span struct {
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Layer  string `json:"layer"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var kindNames = [...]string{opGet: "get", opPut: "put", opScan: "scan", opInsert: "insert", opDelete: "delete"}

// ledger is a traced run's result.
type ledger struct {
	t0    time.Time
	spans []span
	durs  map[string]*[len(kindNames)][]int64 // per layer and op kind: every span's length

	overheadPct    float64 // the client row with spans against without
	wireBytesPerOp float64
	loadsPerLookup float64
}

// row replays ops through do with a span around each call.
func (l *ledger) row(layer, parent string, ops []op, do func(o op) error) error {
	d := l.durs[layer]
	if d == nil {
		d = new([len(kindNames)][]int64)
		l.durs[layer] = d
	}
	for i, o := range ops {
		t := time.Now()
		err := do(o)
		e := time.Now()
		if err != nil {
			return fmt.Errorf("trace row %s, op %d: %w", layer, i, err)
		}
		d[o.kind] = append(d[o.kind], int64(e.Sub(t)))
		l.spans = append(l.spans, span{i, kindNames[o.kind], layer, parent,
			int64(t.Sub(l.t0)), int64(e.Sub(l.t0))})
	}
	return nil
}

// incl is a row's cost per op in microseconds: the median span of each op
// kind, weighted by the kind's share of the row's ops. A mean would be
// simpler, but one commit in sixteen on a lone connection sleeps a
// group-commit probe window a hundred times longer than the work, and rows
// that differ by microseconds could not be subtracted; the window has its
// own metric (core.gather_wall_mean_us).
func (l *ledger) incl(layer string) float64 {
	d := l.durs[layer]
	if d == nil {
		return 0
	}
	n, sum := 0, 0.0
	for _, k := range d {
		n += len(k)
		sum += us(percentile(sortedCopy(k), 0.5)) * float64(len(k))
	}
	return sum / float64(n)
}

// writeFile writes the spans as one JSON object per line.
func (l *ledger) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// traceScale sizes the ledger's own stack and windows.
type traceScale struct {
	keys int // loaded into the ledger's stack
	ops  int // per row
}

const (
	btreeValueSize = 8 + kvMaxValue // kv's record: a length word, then the padded payload
	traceLogSlot   = rewind.AppRootFirst + 1
	regionBytes    = 4 << 20 // scratch the core and nvm rows write into
	overheadChunk  = 50      // ops per turn, with spans and without, in the client row
)

// writeCost is what one write op was counted doing in the kv row, which the
// rows beneath replay.
type writeCost struct {
	spans      int // span records per transaction
	spanWords  int // words per span record
	cached     int // cached word stores
	ntWords    int // non-temporal word stores
	flushLines int
	fences     int
}

// countWriteCost turns the kv row's counter deltas into the per-write
// replay recipe, rounded to whole records and words. Every transaction
// ends in one END record; the rest are taken as equal span records.
func countWriteCost(ops []op, dev nvm.Stats, before, after core.Stats) writeCost {
	writes := int64(0)
	for _, o := range ops {
		if o.isWrite() {
			writes++
		}
	}
	records := after.Records - before.Records
	spans := records - (after.Committed - before.Committed)
	if writes == 0 || spans <= 0 {
		return writeCost{}
	}
	per := func(n int64) int { return int((n + writes/2) / writes) }
	payload := after.LogBytes - before.LogBytes - records*rlog.RecordSize
	return writeCost{
		spans:      max(per(spans), 1),
		spanWords:  int(payload / (2 * 8 * spans)),
		cached:     per(dev.CachedStores),
		ntWords:    per(dev.NTStores),
		flushLines: per(dev.Flushes),
		fences:     per(dev.Fences),
	}
}

// tracer holds the one stack every row runs on.
type tracer struct {
	*ledger
	w      *workload
	sk     *stack
	trees  []*btree.Tree // bare trees of kv's shape with kv's keys, for the btree row
	cl     *client.Client
	vers   []uint32 // per key index, the last version a row wrote
	val    []byte   // scratch for the value being written
	rec    []byte   // scratch for its btree record
	region uint64   // scratch arena block the core and nvm rows write into
	cost   writeCost
}

// value is the next version of o's key.
func (t *tracer) value(o op) []byte {
	t.vers[o.idx]++
	t.val = appendValue(t.val[:0], int(o.idx), t.vers[o.idx], t.w.valueLen)
	return t.val
}

// record is v as kv stores it in a tree: a length word, then v, padded.
func (t *tracer) record(v []byte) []byte {
	clear(t.rec)
	binary.LittleEndian.PutUint64(t.rec, uint64(len(v)))
	copy(t.rec[8:], v)
	return t.rec
}

// slot is where span s of op o lands in the scratch region: spread by key,
// line-aligned, clear of the region's end.
func (t *tracer) slot(o op, s int) uint64 {
	stride := uint64(max(t.cost.spanWords*8, t.cost.cached*8, nvm.LineSize)+nvm.LineSize-1) / nvm.LineSize * nvm.LineSize
	return t.region + (mix64(uint64(o.idx))+uint64(s))%(regionBytes/stride-1)*stride
}

// runLedger builds one in-process stack in dir, loads it, and replays the
// workload's stream at every boundary.
func runLedger(w *workload, seed uint64, ts traceScale, dir string) (*ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sk, err := openStack(dir)
	if err != nil {
		return nil, err
	}
	defer sk.st.Close()
	const windows = 4 // client without spans and with, kv, btree
	stream := w.gen(&rng{s: seed}, 0, windows*ts.ops, ts.keys)
	t := &tracer{
		ledger: &ledger{durs: map[string]*[len(kindNames)][]int64{}},
		w:      w, sk: sk,
		vers: make([]uint32, ts.keys+len(stream)),
		rec:  make([]byte, btreeValueSize),
	}
	if err := t.load(ts.keys); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go sk.srv.Serve(ln) //nolint:errcheck // ends at Close below
	defer sk.srv.Close()
	t.cl = client.Dial(ln.Addr().String(), client.Options{Conns: 1, Retries: -1})
	defer t.cl.Close()

	t.t0 = time.Now()
	if err := t.clientRow(stream[:2*ts.ops]); err != nil {
		return nil, err
	}
	kvOps := stream[2*ts.ops : 3*ts.ops]
	if err := t.kvRow(kvOps); err != nil {
		return nil, err
	}
	if err := t.btreeRow(stream[3*ts.ops:]); err != nil {
		return nil, err
	}
	// From here down the rows replay the kv window's writes by count.
	t.region = sk.st.Alloc(regionBytes)
	for _, row := range []func([]op) error{t.coreRow, t.rlogRow, t.pmemRow, t.nvmRow, t.obsRow, t.wireRow} {
		if err := row(kvOps); err != nil {
			return nil, err
		}
	}
	return t.ledger, nil
}

// load stores keys [0, n) at version 1 in the kv store and in the bare
// trees, a batch at a time, with checkpoints on the way and one at the end.
func (t *tracer) load(n int) error {
	st := t.sk.st
	t.trees = make([]*btree.Tree, kvStripes)
	for i := range t.trees {
		var err error
		if t.trees[i], err = btree.NewAt(st, btree.Config{ValueSize: btreeValueSize}); err != nil {
			return err
		}
	}
	for i := 0; i < n; i += batchOps {
		end := min(i+batchOps, n)
		ops := make([]kv.Op, 0, batchOps)
		for j := i; j < end; j++ {
			t.vers[j] = 1
			ops = append(ops, kv.Op{Key: keyOf(j), Value: appendValue(nil, j, 1, t.w.valueLen)})
		}
		if err := t.sk.kvs.Batch(ops); err != nil {
			return err
		}
		err := st.Atomic(func(tx *rewind.Tx) error {
			for _, o := range ops {
				if _, err := t.trees[o.Key%kvStripes].Insert(tx, o.Key, t.record(o.Value)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if i/(n/4+1) != end/(n/4+1) {
			st.CheckpointPaced(ckptBudgetLines)
		}
	}
	st.CheckpointPaced(ckptBudgetLines)
	return nil
}

// clientRow runs ops over loopback in alternating chunks with and without
// spans, so both see the same machine; the difference is what tracing
// costs.
func (t *tracer) clientRow(ops []op) error {
	do := func(o op) error {
		key := keyOf(int(o.idx))
		switch o.kind {
		case opGet:
			_, err := t.cl.Get(key)
			return err
		case opScan:
			_, err := t.cl.Scan(key, math.MaxUint64, scanLen)
			return err
		case opDelete:
			_, err := t.cl.Delete(key)
			return err
		}
		return t.cl.Put(key, t.value(o))
	}
	var with, without time.Duration
	for i := 0; i < len(ops); i += overheadChunk {
		chunk := ops[i:min(i+overheadChunk, len(ops))]
		start := time.Now()
		if i/overheadChunk%2 == 0 {
			for _, o := range chunk {
				if err := do(o); err != nil {
					return fmt.Errorf("trace row client, without spans: %w", err)
				}
			}
			without += time.Since(start)
			continue
		}
		if err := t.row("client", "", chunk, do); err != nil {
			return err
		}
		with += time.Since(start)
	}
	t.overheadPct = 100 * float64(with-without) / float64(without)
	return nil
}

// kvRow calls the kv store directly, and counts what its writes cost the
// log and the device.
func (t *tracer) kvRow(ops []op) error {
	st, kvs := t.sk.st, t.sk.kvs
	dev, tm := st.Stats(), st.TMStats()
	err := t.row("kv", "client", ops, func(o op) error {
		key := keyOf(int(o.idx))
		switch o.kind {
		case opGet:
			kvs.Get(key)
			return nil
		case opScan:
			kvs.Scan(key, math.MaxUint64, scanLen)
			return nil
		case opDelete:
			_, err := kvs.DeleteSpan(key, nil)
			return err
		}
		return kvs.PutSpan(key, t.value(o), nil)
	})
	t.cost = countWriteCost(ops, st.Stats().Sub(dev), tm, st.TMStats())
	return err
}

// btreeRow makes the calls kv makes into btree, without kv: its routing
// between the in-leaf and structural paths for writes inside Store.Atomic,
// the validated read path for reads, on the bare trees.
func (t *tracer) btreeRow(ops []op) error {
	st, mem := t.sk.st, t.sk.st.Mem()
	read := func(addr uint64) { st.ReadBytes(addr+8, int(mem.Load64(addr))) }
	lookups := 0
	loads := st.Stats().Loads
	err := t.row("btree", "kv", ops, func(o op) error {
		key := keyOf(int(o.idx))
		tr := t.trees[key%kvStripes]
		switch o.kind {
		case opGet:
			lookups++
			if addr, ok := tr.SeekRecord(key); ok {
				read(addr)
			}
			return nil
		case opScan:
			lookups++
			var keys []uint64
			for _, tr := range t.trees {
				n := 0
				tr.ScanRecords(key, math.MaxUint64, func(k, addr uint64) bool {
					read(addr)
					keys = append(keys, k)
					n++
					return n < scanLen
				})
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			return nil
		}
		leaf := tr.SeekLeafNode(key)
		pos, eq := tr.LeafFind(leaf, key)
		return st.Atomic(func(tx *rewind.Tx) error {
			switch {
			case o.kind == opDelete && eq && tr.LeafCanShrink(leaf):
				if err := tr.DeleteInLeaf(tx, leaf, pos); err != nil {
					return err
				}
				return tr.AddLen(tx, -1)
			case o.kind == opDelete:
				_, err := tr.Delete(tx, key)
				return err
			case eq:
				return tr.OverwriteInLeaf(tx, leaf, pos, t.record(t.value(o)))
			case tr.LeafHasRoom(leaf):
				if err := tr.InsertInLeaf(tx, leaf, pos, key, t.record(t.value(o))); err != nil {
					return err
				}
				return tr.AddLen(tx, +1)
			}
			_, err := tr.Insert(tx, key, t.record(t.value(o)))
			return err
		})
	})
	if lookups > 0 {
		// The row's writes load too; the read-only workload, where the
		// number matters, has none.
		t.loadsPerLookup = float64(st.Stats().Loads-loads) / float64(lookups)
	}
	return err
}

// coreRow commits a transaction per write, logging the spans the kv row's
// writes logged.
func (t *tracer) coreRow(ops []op) error {
	buf := make([]byte, t.cost.spanWords*8)
	return t.row("core", "btree", ops, func(o op) error {
		if !o.isWrite() {
			return nil
		}
		tx := t.sk.st.Begin()
		for s := 0; s < t.cost.spans; s++ {
			if err := tx.WriteBytes(t.slot(o, s), buf); err != nil {
				return err
			}
		}
		return tx.Commit()
	})
}

// rlogRow appends the same records, and an END, to a log of its own, and
// forces it as a group-commit round does.
func (t *tracer) rlogRow(ops []op) error {
	alloc := t.sk.st.Allocator()
	lg := rlog.New(alloc, rlog.Config{Kind: rlog.Batch, GroupSize: logGroupSize, RootSlot: traceLogSlot})
	words := make([]uint64, t.cost.spanWords)
	lsn := uint64(0)
	return t.row("rlog", "core", ops, func(o op) error {
		if !o.isWrite() {
			return nil
		}
		for s := 0; s < t.cost.spans; s++ {
			lsn++
			r := rlog.AllocDeferred(alloc, rlog.Fields{LSN: lsn, Txn: lsn, Type: rlog.TypeUpdate,
				Flags: rlog.FlagUndoable, Addr: t.slot(o, s), OldSpan: words, NewSpan: words})
			lg.Append(r.Addr, false)
		}
		lsn++
		r := rlog.AllocDeferred(alloc, rlog.Fields{LSN: lsn, Txn: lsn, Type: rlog.TypeEnd})
		lg.Append(r.Addr, false)
		lg.ForceFlush()
		return nil
	})
}

// pmemRow allocates the same records' blocks and frees them 512 blocks
// late, as a checkpoint frees log records, so Alloc is served from the free
// lists it fills.
func (t *tracer) pmemRow(ops []op) error {
	alloc := t.sk.st.Allocator()
	var held []uint64
	return t.row("pmem", "rlog", ops, func(o op) error {
		if !o.isWrite() {
			return nil
		}
		for s := 0; s < t.cost.spans; s++ {
			held = append(held, alloc.Alloc(rlog.SpanSize(t.cost.spanWords)))
		}
		held = append(held, alloc.Alloc(rlog.RecordSize))
		for len(held) > 512 {
			alloc.Free(held[0])
			held = held[1:]
		}
		return nil
	})
}

// nvmRow issues the device operations the kv row's writes were counted
// issuing.
func (t *tracer) nvmRow(ops []op) error {
	mem := t.sk.st.Mem()
	cached := make([]byte, t.cost.cached*8)
	nt := make([]byte, t.cost.ntWords*8)
	return t.row("nvm", "pmem", ops, func(o op) error {
		if !o.isWrite() {
			return nil
		}
		a := t.slot(o, 0)
		mem.Write(a, cached)
		mem.FlushRange(a, t.cost.flushLines*nvm.LineSize)
		for f := 0; f < t.cost.fences; f++ {
			mem.Fence()
		}
		mem.WriteNT(a, nt)
		return nil
	})
}

// obsRow makes the calls the server makes into obs per request.
func (t *tracer) obsRow(ops []op) error {
	o := obs.New(obs.NewRegistry(), obs.Config{})
	fr := obs.NewFlight(o.FlightSize())
	return t.row("obs", "server", ops, func(op op) error {
		sp := o.StartSpan(obs.OpPut, uint64(op.idx))
		if op.isWrite() {
			for p := obs.Phase(0); p < obs.NumPhases; p++ {
				o.PhaseNs(sp, p, 1, 1)
			}
		}
		o.FinishSpan(sp, 0, fr)
		return nil
	})
}

// wireRow codes and decodes each op's request and response frames with no
// socket between.
func (t *tracer) wireRow(ops []op) error {
	var sent int64
	var body, frame []byte
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	roundTrip := func(code byte, body []byte) error {
		frame = wire.AppendFrame(frame[:0], 1, code, body)
		sent += int64(len(frame))
		rd.Reset(frame)
		br.Reset(&rd)
		_, _, b, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		for r := (wire.Reader{B: b}); len(r.B) >= 8; {
			if _, err := r.U64(); err != nil {
				return err
			}
		}
		return nil
	}
	answer := appendValue(nil, 0, 1, t.w.valueLen)
	err := t.row("wire", "client", ops, func(o op) error {
		key := keyOf(int(o.idx))
		body = wire.AppendU64(body[:0], key)
		var resp []byte
		code := wire.OpPut
		switch o.kind {
		case opGet:
			code, resp = wire.OpGet, answer
		case opScan:
			code = wire.OpScan
			body = wire.AppendU32(wire.AppendU64(body, math.MaxUint64), scanLen)
			resp = wire.AppendU32(nil, scanLen)
			for i := 0; i < scanLen; i++ {
				resp = wire.AppendBytes(wire.AppendU64(resp, key), answer)
			}
		case opDelete:
			code, resp = wire.OpDel, []byte{1}
		default:
			body = wire.AppendBytes(body, answer)
		}
		if err := roundTrip(code, body); err != nil {
			return err
		}
		return roundTrip(wire.StatusOK, resp)
	})
	t.wireBytesPerOp = float64(sent) / float64(len(ops))
	return err
}
