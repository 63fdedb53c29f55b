package server

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// startServer boots a store + server on a loopback port and returns the
// server and its address.
func startServer(t testing.TB, gc bool) (*Server, string) {
	t.Helper()
	st, err := rewind.Open(rewind.Options{
		ArenaSize: 64 << 20, GroupCommit: gc,
		GroupCommitWindow: 100 * time.Microsecond, GroupCommitMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 8, MaxValue: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(kvs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// containsField reports whether a JSON document names the given field —
// the operator-facing contract that a counter is present in STATS at all,
// independent of its value.
func containsField(doc []byte, field string) bool {
	return strings.Contains(string(doc), `"`+field+`"`)
}

func TestEndToEnd(t *testing.T) {
	_, addr := startServer(t, true)
	cl := client.Dial(addr, client.Options{Conns: 2})
	defer cl.Close()

	if _, err := cl.Get(1); err != client.ErrNotFound {
		t.Fatalf("Get on empty store = %v, want ErrNotFound", err)
	}
	if err := cl.Put(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(1)
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get(1) = %q, %v", v, err)
	}
	found, err := cl.Delete(1)
	if err != nil || !found {
		t.Fatalf("Delete(1) = %v, %v", found, err)
	}
	if _, err := cl.Get(1); err != client.ErrNotFound {
		t.Fatalf("Get after delete = %v", err)
	}

	// Batch + scan.
	var ops []client.Op
	for k := uint64(10); k < 30; k++ {
		ops = append(ops, client.Op{Key: k, Value: []byte(fmt.Sprintf("v%d", k))})
	}
	if err := cl.Batch(ops); err != nil {
		t.Fatal(err)
	}
	pairs, err := cl.Scan(15, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("Scan returned %d pairs, want 10", len(pairs))
	}
	for i, p := range pairs {
		if p.Key != uint64(15+i) || string(p.Value) != fmt.Sprintf("v%d", p.Key) {
			t.Fatalf("pair %d = %d %q", i, p.Key, p.Value)
		}
	}

	// Re-put an existing key: a non-structural value overwrite must take
	// the CAS fast path, and the write-path counters must ride STATS.
	if err := cl.Put(10, []byte("v10-again")); err != nil {
		t.Fatal(err)
	}

	// Stats round-trips as JSON and has seen our traffic.
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats JSON: %v (%q)", err, raw)
	}
	if st.Requests == 0 || st.KV.Puts == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.KV.OverwriteFastPath == 0 {
		t.Fatalf("overwrite of key 10 did not take the fast path: %+v", st.KV)
	}
	for _, field := range []string{"OverwriteFastPath", "LeafLatchWaits", "StripeLatchFallbacks"} {
		if !containsField(raw, field) {
			t.Fatalf("STATS document lacks write-path counter %q: %s", field, raw)
		}
	}

	// Oversized put surfaces the kv error as a status, not a dead conn.
	if err := cl.Put(5, make([]byte, 1000)); err == nil {
		t.Fatal("oversized Put accepted")
	}
	if err := cl.Put(6, []byte("still works")); err != nil {
		t.Fatalf("connection unusable after an error response: %v", err)
	}
}

// TestStatsReportCheckpointPause asserts the checkpoint telemetry rewindd
// serves: after an incremental checkpoint runs against the store, STATS
// must report a completed checkpoint with a non-zero worst freeze pause and
// the freeze count the budget implies — the numbers the daemon's pause
// budget is judged by.
func TestStatsReportCheckpointPause(t *testing.T) {
	srv, addr := startServer(t, false)
	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()

	for k := uint64(0); k < 200; k++ {
		if err := cl.Put(k, []byte(fmt.Sprintf("value-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 0 || st.LastCheckpointPauseNs != 0 {
		t.Fatalf("checkpoint stats nonzero before any checkpoint: %+v", st)
	}

	// The daemon's ticker path: a small-budget paced checkpoint.
	cs := srv.KV().Rewind().CheckpointPaced(16)
	if cs.Chunks < 2 {
		t.Fatalf("paced checkpoint of 200 dirty-line puts took %d freezes, want several", cs.Chunks)
	}
	raw, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d after one checkpoint", st.Checkpoints)
	}
	if st.LastCheckpointPauseNs <= 0 {
		t.Fatalf("LastCheckpointPauseNs = %d, want > 0", st.LastCheckpointPauseNs)
	}
	if st.LastCheckpointChunks != cs.Chunks {
		t.Fatalf("LastCheckpointChunks = %d, want %d", st.LastCheckpointChunks, cs.Chunks)
	}
	if st.LastCheckpointPauseNs > cs.TotalNs {
		t.Fatalf("worst pause %dns exceeds the whole checkpoint %dns", st.LastCheckpointPauseNs, cs.TotalNs)
	}
}

// TestConcurrentClients drives many connections in parallel — the group-
// commit fan-in shape — and verifies contents and that rounds were shared.
func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, true)
	const clients, keysPer = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.Dial(addr, client.Options{Conns: 1})
			defer cl.Close()
			for i := 0; i < keysPer; i++ {
				k := uint64(c*keysPer + i + 1)
				if err := cl.Put(k, []byte{byte(c), byte(i)}); err != nil {
					panic(err)
				}
			}
		}(c)
	}
	wg.Wait()

	cl := client.Dial(addr, client.Options{})
	defer cl.Close()
	for c := 0; c < clients; c++ {
		for i := 0; i < keysPer; i++ {
			k := uint64(c*keysPer + i + 1)
			v, err := cl.Get(k)
			if err != nil || len(v) != 2 || v[0] != byte(c) || v[1] != byte(i) {
				t.Fatalf("key %d = %v, %v", k, v, err)
			}
		}
	}
	st := srv.Stats()
	if st.GroupCommitRounds == 0 || st.GroupCommitRounds >= st.Commits {
		t.Errorf("group commit did not batch: rounds=%d commits=%d", st.GroupCommitRounds, st.Commits)
	}
	if st.GroupedCommits == 0 {
		t.Error("no commit shared a round across 8 connections")
	}
}

// TestPipelining sends a burst of raw pipelined requests on one connection
// and checks every response comes back, in order, after the burst.
func TestPipelining(t *testing.T) {
	_, addr := startServer(t, false)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 50
	var burst []byte
	for i := uint32(1); i <= n; i++ {
		body := wire.AppendU64(nil, uint64(i))
		body = wire.AppendBytes(body, []byte{byte(i)})
		burst = wire.AppendFrame(burst, i, wire.OpPut, body)
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := newReader(c)
	for i := uint32(1); i <= n; i++ {
		id, status, _, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("response order: got id %d, want %d", id, i)
		}
		if status != wire.StatusOK {
			t.Fatalf("response %d status %d", i, status)
		}
	}
}

// TestPartialFrameDoesNotStallAcks: a response (a durability ack) must be
// flushed before the server blocks on a half-received next frame — a
// client that writes frames in pieces must not have its previous ack held
// hostage.
func TestPartialFrameDoesNotStallAcks(t *testing.T) {
	_, addr := startServer(t, false)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mkPut := func(id uint32, key uint64, val string) []byte {
		body := wire.AppendU64(nil, key)
		body = wire.AppendBytes(body, []byte(val))
		return wire.AppendFrame(nil, id, wire.OpPut, body)
	}
	f1, f2 := mkPut(1, 1, "a"), mkPut(2, 2, "b")
	// One complete frame plus the first 6 bytes of the next.
	if _, err := c.Write(append(append([]byte(nil), f1...), f2[:6]...)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := newReader(c)
	id, status, _, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("ack for frame 1 stalled behind the partial frame: %v", err)
	}
	if id != 1 || status != wire.StatusOK {
		t.Fatalf("response id=%d status=%d", id, status)
	}
	if _, err := c.Write(f2[6:]); err != nil {
		t.Fatal(err)
	}
	id, status, _, err = wire.ReadFrame(br)
	if err != nil || id != 2 || status != wire.StatusOK {
		t.Fatalf("completed frame 2: id=%d status=%d err=%v", id, status, err)
	}
}

// TestClientRetry kills the client's connection under it and verifies the
// next call redials transparently.
func TestClientRetry(t *testing.T) {
	srv, addr := startServer(t, false)
	cl := client.Dial(addr, client.Options{Conns: 1, Retries: 3})
	defer cl.Close()
	if err := cl.Put(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Kill every server-side connection.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// The next call may race the teardown; retries must absorb it.
	v, err := cl.Get(1)
	if err != nil || string(v) != "a" {
		t.Fatalf("Get after connection kill = %q, %v", v, err)
	}
}
