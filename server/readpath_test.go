package server

// Service-layer coverage for the latch-free read path and the SCAN limit
// plumbing: the read-retry telemetry rewindd serves over STATS, and the
// end-to-end "unlimited means unlimited" contract across the wire
// protocol's paging.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// TestStatsReportReadCounters: STATS carries the kv store's seqlock
// telemetry — ReadRetries / ReadFallbacks — so an operator can see whether
// the optimistic read path is absorbing traffic or thrashing.
func TestStatsReportReadCounters(t *testing.T) {
	_, addr := startServer(t, false)
	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()
	if err := cl.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ReadRetries", "ReadFallbacks"} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("STATS document lacks %s: %s", field, raw)
		}
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.KV.Gets < 10 {
		t.Fatalf("stats saw %d gets", st.KV.Gets)
	}
	if st.KV.ReadRetries < 0 || st.KV.ReadFallbacks < 0 {
		t.Fatalf("negative read counters: %+v", st.KV)
	}
}

// TestScanUnlimitedPaginates: a limit-0 client Scan of a store whose
// contents span several server pages returns every pair — the server caps
// each RESPONSE at a frame-sized page, and the client must keep resuming
// until the range is exhausted rather than silently truncating.
func TestScanUnlimitedPaginates(t *testing.T) {
	// MaxValue 4096 shrinks the server's scan page to ~255 pairs, so 600
	// keys force at least three pages.
	st, err := rewind.Open(rewind.Options{ArenaSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 4, MaxValue: 4096})
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

	if page := srv.scanPage(); page >= 600 {
		t.Fatalf("test needs multiple pages; scanPage() = %d", page)
	}
	const n = 600
	var ops []kv.Op
	for k := uint64(1); k <= n; k++ {
		ops = append(ops, kv.Op{Key: k, Value: []byte{byte(k), byte(k >> 8)}})
	}
	if err := kvs.Batch(ops); err != nil {
		t.Fatal(err)
	}

	cl := client.Dial(ln.Addr().String(), client.Options{Conns: 1, DialTimeout: 5 * time.Second})
	defer cl.Close()
	pairs, err := cl.Scan(0, 1<<63, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Fatalf("unlimited scan over %d pages returned %d pairs, want %d",
			(n+srv.scanPage()-1)/srv.scanPage(), len(pairs), n)
	}
	for i, p := range pairs {
		if p.Key != uint64(i+1) {
			t.Fatalf("pair %d has key %d (pagination skipped or repeated)", i, p.Key)
		}
		if len(p.Value) != 2 || p.Value[0] != byte(p.Key) {
			t.Fatalf("pair %d value %x", i, p.Value)
		}
	}
	// Positive limits cut across page boundaries exactly.
	if got, err := cl.Scan(0, 1<<63, 401); err != nil || len(got) != 401 {
		t.Fatalf("limit-401 scan = %d pairs, %v", len(got), err)
	}
}

// TestScanReplyAllocs gates what a short SCAN allocates through the server
// data path (apply, observability off): kv's two result slices and no
// per-pair buffer or intermediate reply body — the reply is encoded
// straight into the output buffer.
func TestScanReplyAllocs(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 64 << 20, DisableTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ops []kv.Op
	for k := uint64(0); k < 4000; k++ {
		ops = append(ops, kv.Op{Key: k, Value: bytes.Repeat([]byte{byte(k)}, 100)})
	}
	if err := kvs.Batch(ops); err != nil {
		t.Fatal(err)
	}
	srv := New(kvs)
	req := wire.AppendU64(nil, 1234)
	req = wire.AppendU64(req, 1<<64-1)
	req = wire.AppendU32(req, 10)
	dst := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		dst = srv.apply(dst[:0], 7, wire.OpScan, req)
	})
	id, status, body, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(dst)))
	if err != nil || id != 7 || status != wire.StatusOK {
		t.Fatalf("SCAN reply: id %d, status %d, %v", id, status, err)
	}
	r := &wire.Reader{B: body}
	if n, _ := r.U32(); n != 10 {
		t.Fatalf("SCAN reply carries %d pairs, want 10", n)
	}
	for k := uint64(1234); k < 1244; k++ {
		key, _ := r.U64()
		v, err := r.Bytes()
		if err != nil || key != k || !bytes.Equal(v, bytes.Repeat([]byte{byte(k)}, 100)) {
			t.Fatalf("pair for key %d: key %d, %d-byte value, %v", k, key, len(v), err)
		}
	}
	t.Logf("%.1f allocations per 10-pair SCAN", allocs)
	if allocs > 4 {
		t.Fatalf("a 10-pair SCAN through apply allocates %.1f objects, want <= 4", allocs)
	}
}
