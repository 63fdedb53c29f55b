package server

import (
	"bufio"
	"net"
	"runtime"
	"testing"

	"github.com/rewind-db/rewind/internal/wire"
)

// burstAllocs sends bursts of the frames in burst, one write each, over c
// and reads every reply, and returns the process's mallocs per request
// across many bursts after a warm-up. The client side reuses its buffers,
// so what it counts is the server's.
func burstAllocs(t *testing.T, c net.Conn, burst []byte, depth int) float64 {
	t.Helper()
	br := bufio.NewReaderSize(c, bufSize)
	var frame []byte
	run := func(bursts int) {
		for b := 0; b < bursts; b++ {
			if _, err := c.Write(burst); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < depth; i++ {
				_, status, _, err := wire.ReadFrameInto(br, &frame)
				if err != nil {
					t.Fatal(err)
				}
				if status != wire.StatusOK {
					t.Fatalf("reply %d of a burst: status %d", i, status)
				}
			}
		}
	}
	run(100)
	const bursts = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(bursts)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(bursts*depth)
}

// burstServer starts an observability-on server holding keys 0..255 and
// returns a raw connection to it.
func burstServer(t *testing.T) net.Conn {
	t.Helper()
	srv, _, addr := startObsServer(t)
	for k := uint64(0); k < 256; k++ {
		if err := srv.KV().Put(k, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPutBurstAllocs gates what a pipelined PUT allocates in the daemon:
// 16-deep bursts of 16-byte overwrites on keys across every stripe, over a
// real loopback connection, observability on. The frame buffer, the span,
// the transaction handle and kv's publish hook are all reused, so what is
// left is the group-commit round (a gcRound and its two channels per round
// led); the parent made about 8 objects per PUT.
func TestPutBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops values at random, so pooled objects are allocated afresh")
	}
	c := burstServer(t)
	const depth = 16
	var burst []byte
	for i := 0; i < depth; i++ {
		body := wire.AppendU64(nil, uint64(i*17%256))
		body = wire.AppendBytes(body, []byte("fedcba9876543210"))
		burst = wire.AppendFrame(burst, uint32(i), wire.OpPut, body)
	}
	got := burstAllocs(t, c, burst, depth)
	t.Logf("%.3f allocations per pipelined PUT", got)
	if got > 1 {
		t.Fatalf("a pipelined PUT allocates %.2f objects, want <= 1", got)
	}
}

// TestGetBurstAllocs is TestPutBurstAllocs for GETs: the one allocation
// per GET left is kv.Get's copy of the value, which the caller owns.
func TestGetBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops values at random, so pooled objects are allocated afresh")
	}
	c := burstServer(t)
	const depth = 16
	var burst []byte
	for i := 0; i < depth; i++ {
		burst = wire.AppendFrame(burst, uint32(i), wire.OpGet, wire.AppendU64(nil, uint64(i*17%256)))
	}
	got := burstAllocs(t, c, burst, depth)
	t.Logf("%.3f allocations per pipelined GET", got)
	if got > 1.5 {
		t.Fatalf("a pipelined GET allocates %.2f objects, want <= 1.5", got)
	}
}
