package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// scriptConn is an in-memory net.Conn for driving handleConn on the test's
// own goroutine: each Read returns the next scripted chunk (so the test
// decides which frames the loop finds buffered together, i.e. where its
// bursts end), then io.EOF; every Write — which the loop's bufio.Writer
// only issues at a flush — is what "the client received".
type scriptConn struct {
	chunks [][]byte
	got    bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { return c.got.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// serveScript runs the real connection loop over c to EOF, on the caller's
// goroutine.
func serveScript(srv *Server, c *scriptConn) {
	srv.handlers.Add(1)
	srv.handleConn(c)
}

// replies parses what a scriptConn received into (id, status, body) frames.
type reply struct {
	id     uint32
	status byte
	body   []byte
}

func parseReplies(t *testing.T, raw []byte) []reply {
	t.Helper()
	var out []reply
	br := bufio.NewReader(bytes.NewReader(raw))
	for {
		id, status, body, err := wire.ReadFrame(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reply stream is not well-formed frames: %v", err)
		}
		out = append(out, reply{id, status, append([]byte(nil), body...)})
	}
}

func putFrame(id uint32, key uint64, val string) []byte {
	return wire.AppendFrame(nil, id, wire.OpPut, wire.AppendBytes(wire.AppendU64(nil, key), []byte(val)))
}

func delFrame(id uint32, key uint64) []byte {
	return wire.AppendFrame(nil, id, wire.OpDel, wire.AppendU64(nil, key))
}

func getFrame(id uint32, key uint64) []byte {
	return wire.AppendFrame(nil, id, wire.OpGet, wire.AppendU64(nil, key))
}

// casFrame swaps key from expect to val; an empty expect means "absent".
func casFrame(id uint32, key uint64, expect, val string) []byte {
	body := wire.AppendU64(nil, key)
	flags := byte(wire.CasStoreValue)
	if expect != "" {
		flags |= wire.CasExpectPresent
	}
	body = append(body, flags)
	if expect != "" {
		body = wire.AppendBytes(body, []byte(expect))
	}
	return wire.AppendFrame(nil, id, wire.OpCas, wire.AppendBytes(body, []byte(val)))
}

// TestPipelinedPutsThenCrossStripeBatch is the regression test for the
// drain kv.update performs before a multi-stripe transaction: one
// connection pipelines 16 PUTs to stripe 0 (overwrites — kv waits for an
// insert itself) and, in the same burst, a BATCH spanning stripes 0 and 1.
// Nobody has waited on the PUTs' tickets when the
// BATCH executes — their replies are queued behind it on the very
// connection that is executing it — so a drain that waits for the
// committers to come back from their own waits (the old pending counter and
// Gosched spin) never ends. The drain must lead the flush itself.
func TestPipelinedPutsThenCrossStripeBatch(t *testing.T) {
	srv, addr := startServer(t, true) // 8 stripes: key%8 is the stripe
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var burst []byte
	for i := 0; i < 16; i++ {
		key := uint64(8 * (i + 1))
		if err := srv.KV().Put(key, []byte("old")); err != nil {
			t.Fatal(err)
		}
		burst = append(burst, putFrame(uint32(i+1), key, fmt.Sprintf("v%d", i))...)
	}
	batch := wire.AppendU32(nil, 2)
	batch = append(batch, 0)
	batch = wire.AppendBytes(wire.AppendU64(batch, 8), []byte("batched")) // stripe 0, overwrites PUT 1
	batch = append(batch, 0)
	batch = wire.AppendBytes(wire.AppendU64(batch, 9), []byte("other")) // stripe 1
	burst = append(burst, wire.AppendFrame(nil, 17, wire.OpBatch, batch)...)
	burst = append(burst, getFrame(18, 8)...) // behind the barrier: sees the batch
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}

	c.SetReadDeadline(time.Now().Add(10 * time.Second)) // a hang is the failure
	br := bufio.NewReader(c)
	for want := uint32(1); want <= 18; want++ {
		id, status, body, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reply %d: %v (the batch's drain never finished?)", want, err)
		}
		if id != want || status != wire.StatusOK {
			t.Fatalf("reply %d: got id %d status %d %q", want, id, status, body)
		}
		if id == 18 && string(body) != "batched" {
			t.Fatalf("GET behind the batch = %q, want its value", body)
		}
	}
}

// TestPipelineSpansFinishAtRelease pins what a request's span means once
// the loop pipelines: it runs from frame in to reply RELEASED, not to the
// end of execution. A burst of three PUTs and a GET is served in one piece;
// the spans must come out in arrival order (release order), every one
// charged its time in the reply queue — the GET included: a read behind
// outstanding writes waits its turn and says so — and the durability wait
// must land on the request that actually waited: the first PUT leads the
// flush (flush_fence on its span), the PUTs behind it find the mark past
// their tickets and record no gather or flush at all. The PUTs overwrite
// keys stored beforehand: only overwrites leave kv ahead of their flush.
func TestPipelineSpansFinishAtRelease(t *testing.T) {
	o := obs.New(obs.NewRegistry(), obs.Config{SlowOp: time.Nanosecond, Logf: func(string, ...any) {}})
	st, err := rewind.Open(rewind.Options{ArenaSize: 32 << 20, GroupCommit: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 4, MaxValue: 64, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(11); key <= 13; key++ {
		if err := kvs.Put(key, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	burst := append(putFrame(1, 11, "a"), putFrame(2, 12, "b")...)
	burst = append(burst, putFrame(3, 13, "c")...)
	burst = append(burst, getFrame(4, 12)...)
	conn := &scriptConn{chunks: [][]byte{burst}}
	serveScript(New(kvs), conn)
	if got := parseReplies(t, conn.got.Bytes()); len(got) != 4 || string(got[3].body) != "b" {
		t.Fatalf("replies = %+v, want 4 with the GET seeing the PUT ahead of it", got)
	}

	spans := o.SlowSpans() // threshold 1ns: every span, in finish order
	if len(spans) != 4 {
		t.Fatalf("%d spans recorded, want 4", len(spans))
	}
	wantKeys := []uint64{11, 12, 13, 12}
	for i, want := range []obs.OpKind{obs.OpPut, obs.OpPut, obs.OpPut, obs.OpGet} {
		sp := spans[i]
		if sp.Op != want || sp.Key != wantKeys[i] {
			t.Fatalf("span %d = %v key %d: spans are not finished in arrival order", i, sp.Op, sp.Key)
		}
		if sp.Phases[obs.PhaseReplyQueue] <= 0 {
			t.Errorf("span %d (%v) was released as part of a burst but charged no reply_queue time", i, sp.Op)
		}
		if sum := sp.Phases[obs.PhaseReplyQueue] + sp.Phases[obs.PhaseFlushFence]; sp.WallNs < sum {
			t.Errorf("span %d: wall %d < queue+flush %d: the span ended before its reply was released", i, sp.WallNs, sum)
		}
		waited := sp.Phases[obs.PhaseGather] != 0 || sp.Phases[obs.PhaseFlushFence] != 0
		if waited != (i == 0) {
			t.Errorf("span %d (%v): gather %d flush_fence %d — only the first PUT should have waited for the flush",
				i, sp.Op, sp.Phases[obs.PhaseGather], sp.Phases[obs.PhaseFlushFence])
		}
	}
	if n := o.OpLatencies()["put"].Count; n != 3 {
		t.Errorf("put histogram count = %d, want 3", n)
	}
}

// TestConnectionDiesMidBurst: a client that pipelines a burst and vanishes
// without reading leaves tickets nobody will wait on. Nothing may leak or
// wedge: the handler exits, Close returns, and every commit the burst
// published is finished in the transaction manager's eyes.
func TestConnectionDiesMidBurst(t *testing.T) {
	srv, addr := startServer(t, true)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var burst []byte
	for i := 0; i < 16; i++ {
		burst = append(burst, putFrame(uint32(i+1), uint64(i+1), "doomed")...)
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	c.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close wedged behind a connection that died mid-burst")
	}
	tms := srv.KV().Rewind().TMStats()
	if tms.Begun != tms.Committed+tms.RolledBack {
		t.Fatalf("begun %d != committed %d + rolled back %d: a transaction was left hanging",
			tms.Begun, tms.Committed, tms.RolledBack)
	}
}

// TestPipelineCrashMatrix holds the connection loop's ack rule — no reply
// for a mutation reaches the socket before its ticket is durable — to
// account the way TestBatchCrashMatrix does for BATCH: the REAL loop
// (handleConn, over a scripted in-memory connection, so every run issues
// the same device operations) serves a depth-16 burst of PUT/DEL/CAS
// frames, with one oversized PUT in the middle, and a crash is injected
// before EVERY durable operation, in both commit modes. Whatever the point:
//
//  1. the replies the client received are a prefix of the burst in arrival
//     order, each with the status its position calls for (the error reply
//     keeps its place);
//  2. every mutation whose reply was received is present after recovery;
//  3. the mutations present after recovery are a prefix of the
//     connection's order — the shard log is FIFO, so no later commit
//     survives an earlier one's loss.
//
// The script delivers the burst in three reads (5, 1 and 10 frames), so the
// loop releases replies three times and crash points fall before, between
// and after partial acknowledgments.
func TestPipelineCrashMatrix(t *testing.T) {
	// Strided under -short so CI's -race job sweeps a subset of the crash
	// points; the full matrix runs in the plain suite.
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			const maxPoints = 20000
			survived := false
			points := 0
			for i := 1; i <= maxPoints && !survived; i += stride {
				survived = runPipelineCrashPoint(t, mode, i)
				points++
			}
			if !survived {
				t.Fatalf("burst still crashing after %d injection points", maxPoints)
			}
			if points < 10 {
				t.Fatalf("only %d crash points before the burst completed; injection is not covering it", points)
			}
			t.Logf("pipeline crash matrix (%s): %d injection points covered", mode, points-1)
		})
	}
}

// burstOp is one frame of the crash-matrix burst: what to send, the reply
// it must get, and how to tell from a recovered store whether it applied
// (nil for the frame that must be refused).
type burstOp struct {
	frame   []byte
	status  byte
	body    string
	applied func(s *kv.Store) bool
}

func pipelineBurst(maxValue int) []burstOp {
	holds := func(key uint64, val string) func(*kv.Store) bool {
		return func(s *kv.Store) bool { v, ok := s.Get(key); return ok && string(v) == val }
	}
	gone := func(key uint64) func(*kv.Store) bool {
		return func(s *kv.Store) bool { _, ok := s.Get(key); return !ok }
	}
	var ops []burstOp
	add := func(frame []byte, status byte, body string, applied func(*kv.Store) bool) {
		ops = append(ops, burstOp{frame, status, body, applied})
	}
	id := func() uint32 { return uint32(len(ops) + 1) }
	// Every op owns its key, so "applied" is decidable per op. Keys 1..10
	// hold "acked-<k>" from the acked phase; 101.. are fresh.
	add(putFrame(id(), 101, "fresh-a"), wire.StatusOK, "", holds(101, "fresh-a"))
	add(putFrame(id(), 2, "overwritten"), wire.StatusOK, "", holds(2, "overwritten"))
	add(delFrame(id(), 5), wire.StatusOK, "\x01", gone(5))
	add(casFrame(id(), 3, "acked-3", "swapped"), wire.StatusOK, "\x01", holds(3, "swapped"))
	add(putFrame(id(), 102, "fresh-b"), wire.StatusOK, "", holds(102, "fresh-b"))
	add(casFrame(id(), 103, "", "if-absent"), wire.StatusOK, "\x01", holds(103, "if-absent"))
	add(putFrame(id(), 104, string(make([]byte, maxValue+1))), wire.StatusErr, kv.ErrValueTooLarge.Error(), nil)
	add(delFrame(id(), 9), wire.StatusOK, "\x01", gone(9))
	add(putFrame(id(), 4, "overwritten-4"), wire.StatusOK, "", holds(4, "overwritten-4"))
	add(putFrame(id(), 105, "fresh-c"), wire.StatusOK, "", holds(105, "fresh-c"))
	add(casFrame(id(), 6, "acked-6", "swapped-6"), wire.StatusOK, "\x01", holds(6, "swapped-6"))
	add(putFrame(id(), 106, "fresh-d"), wire.StatusOK, "", holds(106, "fresh-d"))
	add(delFrame(id(), 7), wire.StatusOK, "\x01", gone(7))
	add(putFrame(id(), 107, "fresh-e"), wire.StatusOK, "", holds(107, "fresh-e"))
	add(putFrame(id(), 8, "overwritten-8"), wire.StatusOK, "", holds(8, "overwritten-8"))
	add(putFrame(id(), 108, "fresh-f"), wire.StatusOK, "", holds(108, "fresh-f"))
	return ops
}

func runPipelineCrashPoint(t *testing.T, mode rewind.CommitMode, point int) (survived bool) {
	t.Helper()
	const maxValue = 64
	st, err := rewind.Open(rewind.Options{ArenaSize: 8 << 20, CommitMode: mode, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 4, MaxValue: maxValue})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(kvs)
	for _, k := range ackedKeys {
		body := wire.AppendBytes(wire.AppendU64(nil, k), []byte(fmt.Sprintf("acked-%d", k)))
		if resp := srv.apply(nil, uint32(k), wire.OpPut, body); resp[8] != wire.StatusOK {
			t.Fatalf("setup put %d not acked: status %d", k, resp[8])
		}
	}

	ops := pipelineBurst(maxValue)
	conn := &scriptConn{chunks: make([][]byte, 3)}
	for i, op := range ops {
		chunk := 2
		if i < 5 {
			chunk = 0
		} else if i == 5 {
			chunk = 1
		}
		conn.chunks[chunk] = append(conn.chunks[chunk], op.frame...)
	}

	mem := st.Mem()
	mem.SetCrashAfter(point)
	crashed := mem.RunToCrash(func() { serveScript(srv, conn) })
	mem.SetCrashAfter(0)

	got := parseReplies(t, conn.got.Bytes())
	if !crashed && len(got) != len(ops) {
		t.Fatalf("point %d: burst completed with %d replies for %d frames", point, len(got), len(ops))
	}
	for i, r := range got {
		if want := ops[i]; r.id != uint32(i+1) || r.status != want.status || string(r.body) != want.body {
			t.Fatalf("point %d: reply %d = id %d status %d %q, want id %d status %d %q",
				point, i, r.id, r.status, r.body, i+1, want.status, want.body)
		}
	}

	st2, err := rewind.Reattach(st.Options(), mem)
	if err != nil {
		t.Fatal(err)
	}
	kvs2, err := kv.Attach(st2, kv.Config{Stripes: 4, MaxValue: maxValue})
	if err != nil {
		t.Fatal(err)
	}
	if err := kvs2.CheckInvariants(); err != nil {
		t.Fatalf("point %d: %v", point, err)
	}
	lost := -1 // the first mutation absent after recovery
	for i, op := range ops {
		if op.applied == nil {
			continue
		}
		switch present := op.applied(kvs2); {
		case present && lost >= 0:
			t.Fatalf("point %d: op %d survived the crash but the earlier op %d did not", point, i+1, lost+1)
		case !present && i < len(got):
			t.Fatalf("point %d: op %d was acknowledged but is absent after recovery", point, i+1)
		case !present && lost < 0:
			lost = i
		}
	}
	return !crashed
}
