package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// startBigServer boots a store whose MaxValue exceeds what one wire frame
// can carry — the configuration that used to poison connections. One stripe
// and the smallest arena kv accepts for its ~17 MiB leaves (a quarter of the
// arena each) keep the fixture cheap under the race detector.
func startBigServer(t *testing.T, maxValue int) (*kv.Store, string) {
	t.Helper()
	st, err := rewind.Open(rewind.Options{ArenaSize: 80 << 20, GroupCommit: true,
		GroupCommitWindow: 0, GroupCommitMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 1, MaxValue: maxValue})
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
	return kvs, ln.Addr().String()
}

// bigValue builds a patterned value big enough to exceed one frame, so a
// chunk stitched at the wrong offset cannot compare equal.
func bigValue(n int, seed byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i) ^ seed
	}
	return v
}

// TestOversizedValueRegression is the regression for the headline bug: a
// GET or SCAN of a value larger than wire.MaxFrame used to make the
// server emit a response frame its own ReadFrame bounds reject, killing
// the connection and every pipelined request on it. The fixed server
// answers StatusTooLarge and the client reassembles the value over GETAT
// chunks — on the SAME connection, which stays usable throughout.
func TestOversizedValueRegression(t *testing.T) {
	big := bigValue(wire.MaxBody+12345, 0x5a) // ~1 MiB + change: 2 GETAT chunks
	kvs, addr := startBigServer(t, len(big))

	// The oversized value enters server-side (a client PUT of it could
	// never fit one request frame either).
	if err := kvs.Put(100, big); err != nil {
		t.Fatal(err)
	}

	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()
	if err := cl.Put(1, []byte("small-before")); err != nil {
		t.Fatal(err)
	}

	// GET of the oversized value succeeds transparently via chunks.
	v, err := cl.Get(100)
	if err != nil {
		t.Fatalf("Get(oversized) = %v", err)
	}
	if !bytes.Equal(v, big) {
		t.Fatalf("Get(oversized) returned %d bytes, mismatched reassembly", len(v))
	}

	// The connection survived: the poisoning bug killed it right here.
	if err := cl.Put(2, []byte("small-after")); err != nil {
		t.Fatalf("connection dead after oversized GET: %v", err)
	}

	// SCAN across a range containing the oversized value returns every
	// pair, resuming pagination around the chunked key.
	pairs, err := cl.Scan(1, 200, 0)
	if err != nil {
		t.Fatalf("Scan over oversized value = %v", err)
	}
	if len(pairs) != 3 {
		t.Fatalf("Scan returned %d pairs, want 3", len(pairs))
	}
	for _, p := range pairs {
		switch p.Key {
		case 1:
			if string(p.Value) != "small-before" {
				t.Fatalf("pair 1 = %q", p.Value)
			}
		case 2:
			if string(p.Value) != "small-after" {
				t.Fatalf("pair 2 = %q", p.Value)
			}
		case 100:
			if !bytes.Equal(p.Value, big) {
				t.Fatalf("oversized pair: %d bytes, mismatched", len(p.Value))
			}
		default:
			t.Fatalf("unexpected key %d", p.Key)
		}
	}
	if err := cl.Put(3, []byte("still-alive")); err != nil {
		t.Fatalf("connection dead after oversized SCAN: %v", err)
	}
}

// TestOversizedValueWireStatus pins the on-the-wire shape: a raw GET of an
// oversized value gets StatusTooLarge carrying the total size — never a
// frame exceeding MaxFrame — and the connection keeps serving.
func TestOversizedValueWireStatus(t *testing.T) {
	big := bigValue(wire.MaxBody+999, 0x21)
	kvs, addr := startBigServer(t, len(big))
	if err := kvs.Put(7, big); err != nil {
		t.Fatal(err)
	}
	if err := kvs.Put(8, []byte("small")); err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(wire.AppendFrame(nil, 1, wire.OpGet, wire.AppendU64(nil, 7))); err != nil {
		t.Fatal(err)
	}
	br := newReader(c)
	id, status, body, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("response frame unreadable (the poisoning bug): %v", err)
	}
	if id != 1 || status != wire.StatusTooLarge {
		t.Fatalf("oversized GET: id=%d status=%d, want StatusTooLarge", id, status)
	}
	if len(body) != 8 || binary.LittleEndian.Uint64(body) != uint64(len(big)) {
		t.Fatalf("StatusTooLarge body = %x, want total %d", body, len(big))
	}
	// Same connection, next request: must still work.
	if _, err := c.Write(wire.AppendFrame(nil, 2, wire.OpGet, wire.AppendU64(nil, 8))); err != nil {
		t.Fatal(err)
	}
	id, status, body, err = wire.ReadFrame(br)
	if err != nil || id != 2 || status != wire.StatusOK || string(body) != "small" {
		t.Fatalf("follow-up GET: id=%d status=%d body=%q err=%v", id, status, body, err)
	}
}

// TestChunkedReadConsistency: a chunked GET spans multiple round trips;
// the consistency token must force a restart when the value changes
// mid-assembly, so the client only ever observes one of the two values a
// concurrent writer alternates between — never a stitch of both.
func TestChunkedReadConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-megabyte overwrite churn")
	}
	n := wire.MaxBody + 4096
	a, b := bigValue(n, 0x11), bigValue(n, 0xee)
	kvs, addr := startBigServer(t, n)
	if err := kvs.Put(1, a); err != nil {
		t.Fatal(err)
	}
	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()

	// The writer flips at most once per completed read, so a read is
	// invalidated mid-assembly at most once in a row and always finishes
	// within the client's attempts.
	const flips = 12
	read := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			<-read
			v := a
			if i%2 == 0 {
				v = b
			}
			if err := kvs.Put(1, v); err != nil {
				panic(err)
			}
		}
	}()
	for i := 0; i < 2*flips; i++ {
		v, err := cl.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, a) && !bytes.Equal(v, b) {
			t.Fatalf("read %d: torn chunked read (%d bytes, first=%#x last=%#x)",
				i, len(v), v[0], v[len(v)-1])
		}
		select {
		case read <- struct{}{}:
		default:
		}
	}
	close(read) // whatever flips are left run unpaced
	wg.Wait()
	if v, err := cl.Get(1); err != nil || (!bytes.Equal(v, a) && !bytes.Equal(v, b)) {
		t.Fatalf("final read torn: %v", err)
	}
}
