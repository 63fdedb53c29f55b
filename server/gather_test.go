package server

import (
	"net"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// gatherStore is a group-commit kv store whose keys 1..n hold "old", so
// that a PUT to any of them is an overwrite: the one mutation that leaves
// kv published but not yet durable.
func gatherStore(t *testing.T, window time.Duration, n uint64) *kv.Store {
	t.Helper()
	st, err := rewind.Open(rewind.Options{ArenaSize: 32 << 20, GroupCommit: true, GroupCommitWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 4, MaxValue: 64})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= n; key++ {
		if err := kvs.Put(key, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	return kvs
}

func flushRounds(kvs *kv.Store) int64 { return kvs.Rewind().ShardStats()[0].GroupCommitRounds }

func wantAcks(t *testing.T, got []reply, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d replies, want %d", len(got), n)
	}
	for i, r := range got {
		if r.id != uint32(i+1) || r.status != wire.StatusOK {
			t.Fatalf("reply %d: id %d status %d, want id %d OK", i, r.id, r.status, i+1)
		}
	}
}

// TestGatherKeepsACohortTogether drives the real connection loop over
// scripted reads. A client that was answered four overwrites at once sends
// four more, and the loop finds them in its buffer ONE at a time — the
// server outrunning the client. Released where the buffer ran dry they
// would cost four flushes; gathered two by two — half a round, so that the
// other half is on its way while this one is answered — they cost two. A
// cohort that comes back short and then ends (EOF) is released as it
// stands, nothing stranded, and the count follows it down.
func TestGatherKeepsACohortTogether(t *testing.T) {
	kvs := gatherStore(t, 0, 4)
	srv := New(kvs)
	var burst []byte
	for i := uint32(1); i <= 4; i++ {
		burst = append(burst, putFrame(i, uint64(i), "a")...)
	}
	chunks := [][]byte{burst}
	for i := uint32(5); i <= 8; i++ {
		chunks = append(chunks, putFrame(i, uint64(i-4), "b"))
	}
	conn := &scriptConn{chunks: chunks}
	before := flushRounds(kvs)
	serveScript(srv, conn)
	wantAcks(t, parseReplies(t, conn.got.Bytes()), 8)
	if got := flushRounds(kvs) - before; got != 3 {
		t.Errorf("a burst of four and four single frames took %d flushes, want 3: one and two cohorts of two", got)
	}
	if n := srv.cohort.Load(); n != 2 {
		t.Errorf("cohort = %d after rounds of four, two and two, want 2", n)
	}

	short := &scriptConn{chunks: [][]byte{burst, putFrame(5, 1, "c")}}
	before = flushRounds(kvs)
	serveScript(srv, short)
	wantAcks(t, parseReplies(t, short.got.Bytes()), 5)
	if got := flushRounds(kvs) - before; got != 2 {
		t.Errorf("a burst of four and a cohort cut short at one took %d flushes, want 2", got)
	}
	if n := srv.cohort.Load(); n != 1 {
		t.Errorf("cohort = %d after a cohort gave up at one, want 1", n)
	}
	if n := srv.unacked.Load(); n != 0 {
		t.Errorf("unacked = %d with every connection gone, want 0", n)
	}
}

// pipelineOver writes frames to c in one piece and reads back one reply per
// frame; a reply that does not come within five seconds is the failure.
func pipelineOver(t *testing.T, c net.Conn, what string, frames ...[]byte) {
	t.Helper()
	var burst []byte
	for _, f := range frames {
		burst = append(burst, f...)
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	readAcks(t, c, what, len(frames))
}

func readAcks(t *testing.T, c net.Conn, what string, n int) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := newReader(c)
	for i := 0; i < n; i++ {
		if _, status, _, err := wire.ReadFrame(br); err != nil || status != wire.StatusOK {
			t.Fatalf("%s: reply %d of %d: status %d, %v", what, i+1, n, status, err)
		}
	}
}

// serveGather puts a server on a loopback port over kvs.
func serveGather(t *testing.T, kvs *kv.Store) (*Server, string) {
	t.Helper()
	srv := New(kvs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestGatherCountCompletesAcrossConnections: the count is the server's, not
// a connection's. Two connections have each pipelined four overwrites, so
// the cohort is two; then one sends a single PUT and waits for company, and
// the other sends the second. The connection whose frame completes the count
// flushes for both and wakes the one still waiting. The window is ten
// seconds and every reply is due within five, so the window running out is
// not what answers.
func TestGatherCountCompletesAcrossConnections(t *testing.T) {
	srv, addr := serveGather(t, gatherStore(t, 10*time.Second, 8))
	dial := func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial(), dial()
	pipelineOver(t, a, "first burst on a", putFrame(1, 1, "a"), putFrame(2, 2, "a"), putFrame(3, 3, "a"), putFrame(4, 4, "a"))
	pipelineOver(t, b, "first burst on b", putFrame(1, 5, "b"), putFrame(2, 6, "b"), putFrame(3, 7, "b"), putFrame(4, 8, "b"))
	if n := srv.cohort.Load(); n != 2 {
		t.Fatalf("cohort = %d after two rounds of four, want 2", n)
	}

	if _, err := a.Write(putFrame(5, 1, "a2")); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); srv.unacked.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the lone PUT on a was never executed")
		}
	}
	a.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := a.Read(make([]byte, 1)); err == nil {
		t.Fatal("a was answered one PUT into a cohort of two: it did not wait for the count")
	}
	pipelineOver(t, b, "the frame that completes the count", putFrame(5, 5, "b2"))
	readAcks(t, a, "the connection woken by the flush", 1)
}

// TestGatherGivesUpAfterTheWindow: a client that sends less than it did is
// answered once the window has passed, and a frame it has only half written
// does not hold the answer back.
func TestGatherGivesUpAfterTheWindow(t *testing.T) {
	srv, addr := serveGather(t, gatherStore(t, 100*time.Microsecond, 4))
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pipelineOver(t, c, "burst of four", putFrame(1, 1, "a"), putFrame(2, 2, "a"), putFrame(3, 3, "a"), putFrame(4, 4, "a"))

	next := putFrame(6, 2, "c")
	if _, err := c.Write(append(putFrame(5, 1, "b"), next[:6]...)); err != nil {
		t.Fatal(err)
	}
	readAcks(t, c, "one PUT and half a frame after a burst of four", 1)
	if n := srv.cohort.Load(); n != 1 {
		t.Errorf("cohort = %d after a cohort gave up at one, want 1", n)
	}
	if _, err := c.Write(next[6:]); err != nil {
		t.Fatal(err)
	}
	readAcks(t, c, "the completed frame", 1)
}
