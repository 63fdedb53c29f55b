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
	"github.com/rewind-db/rewind/internal/crashtest"
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
	out, err := readReplies(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readReplies(raw []byte) ([]reply, error) {
	var out []reply
	br := bufio.NewReader(bytes.NewReader(raw))
	for {
		id, status, body, err := wire.ReadFrame(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("reply stream is not well-formed frames: %v", err)
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
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			n := crashtest.Explore(t, serverCase(rewind.Options{ArenaSize: 8 << 20, CommitMode: mode, GroupCommit: true},
				func() crashtest.Model[*kv.Store] { return &pipelineRun{burst: pipelineBurst(64)} }))
			if n < 9 {
				t.Fatalf("only %d durable operations in the burst; injection is not covering it", n)
			}
		})
	}
}

// burstOp is one frame of the crash-matrix burst: what to send, the reply
// it must get, and what it writes (nothing for the frame that must be
// refused).
type burstOp struct {
	frame  []byte
	status byte
	body   string
	write  *crashtest.Write
}

func pipelineBurst(maxValue int) []burstOp {
	var ops []burstOp
	add := func(frame []byte, status byte, body string, w *crashtest.Write) {
		ops = append(ops, burstOp{frame, status, body, w})
	}
	put := func(key uint64, val string) *crashtest.Write { w := crashtest.Put(key, []byte(val)); return &w }
	del := func(key uint64) *crashtest.Write { w := crashtest.Del(key); return &w }
	id := func() uint32 { return uint32(len(ops) + 1) }
	// Keys 1..10 hold "acked-<k>" from the acked phase; 101.. are fresh.
	add(putFrame(id(), 101, "fresh-a"), wire.StatusOK, "", put(101, "fresh-a"))
	add(putFrame(id(), 2, "overwritten"), wire.StatusOK, "", put(2, "overwritten"))
	add(delFrame(id(), 5), wire.StatusOK, "\x01", del(5))
	add(casFrame(id(), 3, "acked-3", "swapped"), wire.StatusOK, "\x01", put(3, "swapped"))
	add(putFrame(id(), 102, "fresh-b"), wire.StatusOK, "", put(102, "fresh-b"))
	add(casFrame(id(), 103, "", "if-absent"), wire.StatusOK, "\x01", put(103, "if-absent"))
	add(putFrame(id(), 104, string(make([]byte, maxValue+1))), wire.StatusErr, kv.ErrValueTooLarge.Error(), nil)
	add(delFrame(id(), 9), wire.StatusOK, "\x01", del(9))
	add(putFrame(id(), 4, "overwritten-4"), wire.StatusOK, "", put(4, "overwritten-4"))
	add(putFrame(id(), 105, "fresh-c"), wire.StatusOK, "", put(105, "fresh-c"))
	add(casFrame(id(), 6, "acked-6", "swapped-6"), wire.StatusOK, "\x01", put(6, "swapped-6"))
	add(putFrame(id(), 106, "fresh-d"), wire.StatusOK, "", put(106, "fresh-d"))
	add(delFrame(id(), 7), wire.StatusOK, "\x01", del(7))
	add(putFrame(id(), 107, "fresh-e"), wire.StatusOK, "", put(107, "fresh-e"))
	add(putFrame(id(), 8, "overwritten-8"), wire.StatusOK, "", put(8, "overwritten-8"))
	add(putFrame(id(), 108, "fresh-f"), wire.StatusOK, "", put(108, "fresh-f"))
	return ops
}

type pipelineRun struct {
	md    crashtest.KVModel
	burst []burstOp
	conn  scriptConn
}

func (r *pipelineRun) Run(kvs *kv.Store, arm func()) error {
	srv := New(kvs)
	if err := ackedPhase(srv, &r.md); err != nil {
		return err
	}
	r.conn.chunks = make([][]byte, 3)
	for i, op := range r.burst {
		chunk := 2
		if i < 5 {
			chunk = 0
		} else if i == 5 {
			chunk = 1
		}
		r.conn.chunks[chunk] = append(r.conn.chunks[chunk], op.frame...)
		if op.write != nil {
			r.md.Plan(*op.write)
		}
	}
	r.md.Issued = len(r.md.Ops) // every frame is on the wire
	arm()
	serveScript(srv, &r.conn)
	return nil
}

func (r *pipelineRun) Check(kvs *kv.Store, crashed bool) error {
	got, err := readReplies(r.conn.got.Bytes())
	if err != nil {
		return err
	}
	if !crashed && len(got) != len(r.burst) {
		return fmt.Errorf("burst completed with %d replies for %d frames", len(got), len(r.burst))
	}
	r.md.Acked = len(ackedKeys)
	for i, rp := range got {
		want := r.burst[i]
		if rp.id != uint32(i+1) || rp.status != want.status || string(rp.body) != want.body {
			return fmt.Errorf("reply %d = id %d status %d %q, want id %d status %d %q",
				i, rp.id, rp.status, rp.body, i+1, want.status, want.body)
		}
		if want.write != nil {
			r.md.Acked++
		}
	}
	return r.md.Check(kvs)
}
