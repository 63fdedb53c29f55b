package server

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// FuzzTxnOps feeds arbitrary frame streams through the server's full
// request path (apply — everything but the sockets), with the
// transaction-op conversation as the seed corpus. Properties held: the
// server never panics whatever the decoder hands it, every consumed frame
// produces exactly one well-formed response frame echoing its id, and the
// store's invariants survive the abuse.
func FuzzTxnOps(f *testing.F) {
	seedFrameStreams(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return // bound the arena pressure, not the shape coverage
		}
		st, err := rewind.Open(rewind.Options{ArenaSize: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := kv.Create(st, kv.Config{Stripes: 2, MaxValue: 64})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(kvs)
		br := bufio.NewReader(bytes.NewReader(data))
		for frames := 0; frames < 64; frames++ {
			id, op, body, err := wire.ReadFrame(br)
			if err != nil {
				break
			}
			resp := srv.apply(nil, id, op, body)
			rid, _, _, rerr := wire.ReadFrame(bufio.NewReader(bytes.NewReader(resp)))
			if rerr != nil {
				t.Fatalf("op %d: response is not one well-formed frame: %v", op, rerr)
			}
			if rid != id {
				t.Fatalf("op %d: response id %d for request id %d", op, rid, id)
			}
		}
		if err := kvs.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzPipelinedConn feeds the same arbitrary frame streams through the
// REAL connection loop (handleConn over an in-memory connection, group
// commit on), delivered in one read so the loop pipelines as deep as it is
// allowed to: whole bursts are executed and published before anything is
// released. Properties held: no panic, exactly one well-formed response per
// well-formed request frame, ids in arrival order, and nothing after the
// first malformed frame; the store's invariants survive.
func FuzzPipelinedConn(f *testing.F) {
	seedFrameStreams(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return
		}
		st, err := rewind.Open(rewind.Options{ArenaSize: 16 << 20, GroupCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := kv.Create(st, kv.Config{Stripes: 2, MaxValue: 64})
		if err != nil {
			t.Fatal(err)
		}
		var want []uint32
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			id, _, _, err := wire.ReadFrame(br)
			if err != nil {
				break
			}
			want = append(want, id)
		}
		conn := &scriptConn{chunks: [][]byte{data}}
		serveScript(New(kvs), conn)
		got := parseReplies(t, conn.got.Bytes())
		if len(got) != len(want) {
			t.Fatalf("%d responses for %d request frames", len(got), len(want))
		}
		for i, r := range got {
			if r.id != want[i] {
				t.Fatalf("response %d carries id %d, request %d had id %d", i, r.id, i, want[i])
			}
		}
		if err := kvs.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// seedFrameStreams adds the shared corpus: the transaction-op conversation
// and the conditional, chunked-read and truncated-body shapes.
func seedFrameStreams(f *testing.F) {
	put := func(id uint32, key uint64, val string) []byte {
		body := wire.AppendU64(nil, key)
		body = wire.AppendBytes(body, []byte(val))
		return wire.AppendFrame(nil, id, wire.OpPut, body)
	}
	// A full legal conversation: BEGIN, TPUT, for-update TGET, TDEL,
	// COMMIT. The first BEGIN's handle id is 1 (fresh server), so the
	// baked-in txn ids resolve when frames arrive in order — and exercise
	// the unknown-handle path when the fuzzer reorders them.
	tbody := func(tid, key uint64, rest ...byte) []byte {
		b := wire.AppendU64(nil, tid)
		b = wire.AppendU64(b, key)
		return append(b, rest...)
	}
	conv := wire.AppendFrame(nil, 1, wire.OpBegin, nil)
	tput := tbody(1, 5)
	tput = wire.AppendBytes(tput[:16], []byte("v"))
	conv = wire.AppendFrame(conv, 2, wire.OpTxnPut, tput)
	conv = wire.AppendFrame(conv, 3, wire.OpTxnGet, tbody(1, 5, wire.TxnReadForUpdate))
	conv = wire.AppendFrame(conv, 4, wire.OpTxnDel, tbody(1, 9))
	conv = wire.AppendFrame(conv, 5, wire.OpCommit, wire.AppendU64(nil, 1))
	f.Add(conv)
	f.Add(wire.AppendFrame(nil, 1, wire.OpRollback, wire.AppendU64(nil, 3)))
	f.Add(wire.AppendFrame(nil, 2, wire.OpTxnGet, tbody(99, 1, wire.TxnReadPlain)))
	cas := wire.AppendU64(nil, 5)
	cas = append(cas, wire.CasExpectPresent|wire.CasStoreValue)
	cas = wire.AppendBytes(cas, []byte("old"))
	cas = wire.AppendBytes(cas, []byte("new"))
	f.Add(append(put(1, 5, "old"), wire.AppendFrame(nil, 2, wire.OpCas, cas)...))
	getAt := wire.AppendU64(nil, 5)
	getAt = wire.AppendU64(getAt, 2)
	f.Add(append(put(1, 5, "chunky"), wire.AppendFrame(nil, 2, wire.OpGetAt, getAt)...))
	// Truncated transaction bodies: ids without keys, dangling flags.
	f.Add(wire.AppendFrame(nil, 1, wire.OpTxnPut, wire.AppendU64(nil, 1)))
	f.Add(wire.AppendFrame(nil, 1, wire.OpCas, wire.AppendU64(nil, 5)))
	f.Add(wire.AppendFrame(nil, 1, wire.OpCommit, nil))
	// A pipelined burst: mutations, a read behind them, a cross-stripe
	// batch as a barrier, a conditional op.
	burst := append(put(1, 2, "a"), put(2, 4, "b")...)
	burst = append(burst, getFrame(3, 2)...)
	batch := wire.AppendU32(nil, 2)
	batch = wire.AppendBytes(wire.AppendU64(append(batch, 0), 2), []byte("x"))
	batch = wire.AppendBytes(wire.AppendU64(append(batch, 0), 3), []byte("y"))
	burst = append(burst, wire.AppendFrame(nil, 4, wire.OpBatch, batch)...)
	burst = append(burst, delFrame(5, 4)...)
	f.Add(append(burst, casFrame(6, 2, "x", "z")...))
}
