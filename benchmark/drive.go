package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rewind-db/rewind/client"
)

const (
	conns      = 2
	connDepth  = 16 // requests in flight per connection in a closed loop
	batchOps   = 64 // ops per Batch frame when loading and between crashes
	pacedTick  = time.Millisecond
	failureLog = 10 // wrong answers described on stderr before going quiet
)

// kvConn is what the driver needs of client.Client; tests substitute a
// stalled fake.
type kvConn interface {
	Get(key uint64) ([]byte, error)
	Put(key uint64, value []byte) error
	Delete(key uint64) (bool, error)
	Scan(from, to uint64, limit int) ([]client.Pair, error)
	Batch(ops []client.Op) error
}

// driver issues a workload's ops against one daemon and checks every
// answer against the model.
type driver struct {
	w  *workload
	cl kvConn
	d  *daemon // nil in tests: no checkpoints are triggered

	mu   sync.Mutex
	cond *sync.Cond // signalled when a write in flight is acknowledged
	m    *model
	// sorted is the live key set in key order, for checking scans; only
	// kept by workloads whose measured phase scans (and writes nothing).
	sorted []uint64

	attempted, failed atomic.Int64
	writes            int64 // acked writes since the driver was made
	userBytes         int64 // key+value bytes of those writes
	ckpts             []chan reply
}

func newDriver(w *workload, cl kvConn, d *daemon, capacity int) *driver {
	dr := &driver{w: w, cl: cl, d: d, m: newModel(capacity)}
	dr.cond = sync.NewCond(&dr.mu)
	return dr
}

// fail counts one wrong or lost answer.
func (dr *driver) fail(format string, args ...any) {
	if n := dr.failed.Add(1); n <= failureLog {
		fmt.Fprintf(os.Stderr, "benchmark: WRONG: "+format+"\n", args...)
	}
}

// wrote accounts n acked writes and triggers the checkpoints their count
// has earned. Caller holds dr.mu.
func (dr *driver) wrote(n int, every int) error {
	before := dr.writes
	dr.writes += int64(n)
	dr.userBytes += int64(n) * int64(8+dr.w.valueLen)
	if every <= 0 || dr.d == nil {
		return nil
	}
	for k := before/int64(every) + 1; k*int64(every) <= dr.writes; k++ {
		ch, err := dr.d.checkpoint()
		if err != nil {
			return err
		}
		dr.ckpts = append(dr.ckpts, ch)
	}
	return nil
}

// drainCheckpoints waits for every checkpoint triggered so far.
func (dr *driver) drainCheckpoints() error {
	dr.mu.Lock()
	chs := dr.ckpts
	dr.ckpts = nil
	dr.mu.Unlock()
	for _, ch := range chs {
		if _, err := dr.d.await(ch); err != nil {
			return err
		}
	}
	return nil
}

// load stores key indexes [from, to) at version 1 in Batch frames, with an
// awaited checkpoint every ckptEvery keys and one at the end.
func (dr *driver) load(from, to, ckptEvery int) error {
	var buf []byte
	ops := make([]client.Op, 0, batchOps)
	for i := from; i < to; {
		ops, buf = ops[:0], buf[:0]
		for ; i < to && len(ops) < batchOps; i++ {
			start := len(buf)
			buf = appendValue(buf, i, 1, dr.w.valueLen)
			ops = append(ops, client.Op{Key: keyOf(i), Value: buf[start:len(buf):len(buf)]})
		}
		if err := dr.cl.Batch(ops); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		first := i - len(ops)
		for j := first; j < i; j++ {
			dr.m.ver[j], dr.m.live[j] = 1, true
		}
		dr.m.n += len(ops)
		if ckptEvery > 0 && i < to && i/ckptEvery != first/ckptEvery {
			if err := dr.d.checkpointWait(); err != nil {
				return err
			}
		}
	}
	return dr.d.checkpointWait()
}

// do issues one op and checks its answer. scratch is the caller's buffer
// for building and comparing values.
func (dr *driver) do(o op, scratch *[]byte) error {
	dr.attempted.Add(1)
	key := keyOf(int(o.idx))
	switch o.kind {
	case opGet:
		dr.mu.Lock()
		lo := dr.m.ver[o.idx]
		dr.mu.Unlock()
		v, err := dr.cl.Get(key)
		if err != nil {
			dr.fail("GET %d: %v", key, err)
			return nil
		}
		dr.mu.Lock()
		hi := dr.m.newest(o.idx)
		dr.mu.Unlock()
		ver, ok := decodeValue(v, int(o.idx), dr.w.valueLen, *scratch)
		if !ok || ver < lo || ver > hi {
			dr.fail("GET %d: version %d (intact %v), want %d..%d", key, ver, ok, lo, hi)
		}
	case opScan:
		pairs, err := dr.cl.Scan(key, math.MaxUint64, scanLen)
		if err != nil {
			dr.fail("SCAN %d: %v", key, err)
			return nil
		}
		dr.checkScan(key, pairs, scanLen, *scratch)
	case opPut, opInsert, opDelete:
		dr.mu.Lock()
		for dr.m.busy(o.idx) {
			dr.cond.Wait()
		}
		ver := dr.m.issue(o.idx)
		dr.mu.Unlock()
		var err error
		if o.kind == opDelete {
			var found bool
			if found, err = dr.cl.Delete(key); err == nil && !found {
				dr.fail("DEL %d: reported absent", key)
			}
		} else {
			*scratch = appendValue((*scratch)[:0], int(o.idx), ver, dr.w.valueLen)
			err = dr.cl.Put(key, *scratch)
		}
		if err != nil {
			// An unacknowledged write leaves the model unsure of the key;
			// nothing later in the run can be checked, so stop.
			return fmt.Errorf("write of key %d was not acknowledged: %w", key, err)
		}
		dr.mu.Lock()
		dr.m.ack(o.idx, o.kind == opDelete)
		dr.cond.Broadcast()
		err = dr.wrote(1, dr.w.ckptEvery)
		dr.mu.Unlock()
		return err
	}
	return nil
}

// checkScan compares a scan's answer with the first limit live keys at or
// after from. Only used while nothing writes.
func (dr *driver) checkScan(from uint64, pairs []client.Pair, limit int, scratch []byte) {
	i := sort.Search(len(dr.sorted), func(i int) bool { return dr.sorted[i] >= from })
	want := dr.sorted[i:]
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	if len(pairs) != len(want) {
		dr.fail("SCAN %d: %d pairs, want %d", from, len(pairs), len(want))
		return
	}
	for j, p := range pairs {
		idx := idxOf(p.Key)
		ver, ok := decodeValue(p.Value, idx, dr.w.valueLen, scratch)
		if p.Key != want[j] || !ok || ver != dr.m.ver[idx] {
			dr.fail("SCAN %d: pair %d is key %d version %d (intact %v), want key %d version %d",
				from, j, p.Key, ver, ok, want[j], dr.m.ver[idxOf(want[j])])
			return
		}
	}
}

// closedLoop runs ops with depth requests in flight: a worker sends its
// next op only when its last was answered. lat[i] is op i's latency, and
// late[i] how long its worker took to send it after its last answer: the
// closed loop's counterpart of an open loop's generator lateness.
func (dr *driver) closedLoop(ops []op, depth int, lat, late []int64) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, depth)
	var stop atomic.Bool
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]byte, 0, dr.w.valueLen)
			answered := time.Now()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t := time.Now()
				late[i] = int64(t.Sub(answered))
				if err := dr.do(ops[i], &scratch); err != nil {
					stop.Store(true)
					errs <- err
					return
				}
				answered = time.Now()
				lat[i] = int64(answered.Sub(t))
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// openLoop sends op i at start + i/rate whether or not earlier ops were
// answered, from a dispatcher that wakes every tick and sends everything
// due. lat[i] runs from the due instant, so a stall is charged to every
// op it delays; late[i] is how long after its due instant op i was sent.
func openLoop(n, rate int, tick time.Duration, lat, late []int64, do func(i int) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	due := func(i int) time.Time {
		return start.Add(time.Duration(int64(i) * int64(time.Second) / int64(rate)))
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for i := 0; i < n; {
		<-tk.C
		now := time.Now() // not the ticker's stamp, which is when the tick was due
		for ; i < n && !due(i).After(now); i++ {
			d := due(i)
			late[i] = int64(now.Sub(d))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := do(i)
				lat[i] = int64(time.Since(d))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(i)
		}
		mu.Lock()
		err := firstErr
		mu.Unlock()
		if err != nil {
			break
		}
	}
	wg.Wait()
	return firstErr
}

// verify reads the whole store back in key order and compares it with the
// model: every live key at its acknowledged version, and nothing else.
func (dr *driver) verify() error {
	pairs, err := dr.cl.Scan(0, math.MaxUint64, 0)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	want := dr.m.sortedKeys()
	dr.attempted.Add(int64(len(want)))
	scratch := make([]byte, 0, dr.w.valueLen)
	j := 0
	for _, p := range pairs {
		for j < len(want) && want[j] < p.Key {
			dr.fail("after restart: acknowledged key %d is gone", want[j])
			j++
		}
		if j == len(want) || want[j] != p.Key {
			dr.fail("after restart: key %d is present but was deleted or never acknowledged", p.Key)
			continue
		}
		idx := idxOf(p.Key)
		if ver, ok := decodeValue(p.Value, idx, dr.w.valueLen, scratch); !ok || ver != dr.m.ver[idx] {
			dr.fail("after restart: key %d has version %d (intact %v), acknowledged %d", p.Key, ver, ok, dr.m.ver[idx])
		}
		j++
	}
	for ; j < len(want); j++ {
		dr.fail("after restart: acknowledged key %d is gone", want[j])
	}
	return nil
}
