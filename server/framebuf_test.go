package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// fill returns n bytes counting up from seed, so a value spliced from two
// frames cannot compare equal.
func fill(n int, seed byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = seed + byte(i*7)
	}
	return v
}

// TestFrameBufferReuse pins the frame buffer's copy rule: a connection
// reads every frame into one buffer it reuses, so a value that outlives its
// frame — a TPUT buffered until COMMIT, a BATCH's and a CAS's operands — is
// the server's to copy, and nothing may alias the buffer once the next frame
// is read into it. One pipelined stream (a single write) opens a
// transaction, buffers a TPUT, applies a BATCH and a put-if-absent CAS,
// then sends PUTs at least as long, whose bytes land on the same region of
// the buffer; then a BATCH larger than the 64 KiB read buffer and one of
// exactly MaxFrame, which grow the buffer; then another TPUT and the COMMIT.
// Every value is read back byte for byte, over the wire and from kv.
func TestFrameBufferReuse(t *testing.T) {
	o := obs.New(obs.NewRegistry(), obs.Config{Logf: t.Logf})
	st, err := rewind.Open(rewind.Options{ArenaSize: 64 << 20, GroupCommit: true,
		GroupCommitWindow: 100 * time.Microsecond, GroupCommitMax: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 8, Obs: o})
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

	want := map[uint64][]byte{}
	var stream []byte
	id := uint32(0)
	frame := func(op byte, body []byte) {
		id++
		stream = wire.AppendFrame(stream, id, op, body)
	}
	const tid = 1 // a new server's first transaction handle
	tput := func(key uint64, v []byte) {
		body := wire.AppendU64(wire.AppendU64(nil, tid), key)
		frame(wire.OpTxnPut, wire.AppendBytes(body, v))
		want[key] = v
	}
	batch := func(ws []crashtest.Write) {
		frame(wire.OpBatch, batchBody(ws))
		for _, w := range ws {
			want[w.Key] = w.Value
		}
	}

	frame(wire.OpBegin, nil)
	tput(10, fill(300, 0xa0))
	batch([]crashtest.Write{crashtest.Put(20, fill(200, 0xb0)), crashtest.Put(21, fill(100, 0xc0))})
	cas := append(wire.AppendU64(nil, 30), wire.CasStoreValue)
	d := fill(250, 0xd0)
	frame(wire.OpCas, wire.AppendBytes(cas, d))
	want[30] = d
	// Longer than every frame before them: each lands on all of their bytes.
	for k := uint64(40); k < 43; k++ {
		v := bytes.Repeat([]byte{byte(k)}, 400)
		frame(wire.OpPut, wire.AppendBytes(wire.AppendU64(nil, k), v))
		want[k] = v
	}
	// Past the read buffer: 300 puts of 300 bytes.
	var ws []crashtest.Write
	for k := uint64(1000); k < 1300; k++ {
		ws = append(ws, crashtest.Put(k, fill(300, byte(k))))
	}
	if n := len(batchBody(ws)); n <= bufSize {
		t.Fatalf("large BATCH body is %d bytes, not past the %d-byte read buffer", n, bufSize)
	}
	batch(ws)
	// Exactly MaxFrame: puts of MaxValue bytes, the last one trimmed.
	ws = nil
	for k, left := uint64(2000), wire.MaxBody-4; left > 0; k++ {
		n := min(512, left-13)
		ws = append(ws, crashtest.Put(k, fill(n, byte(k))))
		left -= 13 + n
	}
	if n := len(batchBody(ws)); n != wire.MaxBody {
		t.Fatalf("MaxFrame BATCH body is %d bytes, want %d", n, wire.MaxBody)
	}
	batch(ws)
	tput(11, fill(120, 0xf0))
	frame(wire.OpCommit, wire.AppendU64(nil, tid))
	gets := []uint64{10, 11, 20, 21, 30, 40, 41, 42, 1000, 1299, 2000, ws[len(ws)-1].Key}
	for _, k := range gets {
		frame(wire.OpGet, wire.AppendU64(nil, k))
	}

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	written := make(chan error, 1)
	go func() {
		_, err := c.Write(stream)
		written <- err
	}()
	c.SetReadDeadline(time.Now().Add(time.Minute)) // a hang is the failure
	br := bufio.NewReader(c)
	for want1 := uint32(1); want1 <= id; want1++ {
		rid, status, body, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reply %d: %v", want1, err)
		}
		if rid != want1 || status != wire.StatusOK {
			t.Fatalf("reply %d: id %d status %d %q", want1, rid, status, body)
		}
		switch g := int(rid) - (int(id) - len(gets)) - 1; {
		case rid == 1:
			if len(body) != 8 || binary.LittleEndian.Uint64(body) != tid {
				t.Fatalf("BEGIN answered %x, want handle %d", body, tid)
			}
		case g >= 0:
			if k := gets[g]; !bytes.Equal(body, want[k]) {
				t.Fatalf("GET %d over the wire: %d bytes %x..., want %d bytes %x...",
					k, len(body), body[:min(8, len(body))], len(want[k]), want[k][:8])
			}
		}
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got, ok := kvs.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("kv key %d: %d bytes (present %v), want %d bytes", k, len(got), ok, len(v))
		}
	}
}
