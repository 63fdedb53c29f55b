package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// TestTxnCrashMatrix is the interactive-transaction variant of the batch
// crash matrix: a whole BEGIN…TPUT…TDEL…COMMIT conversation runs with a
// crash injected before every durable-operation boundary, under both
// logging protocols. Buffered TPUT/TDEL frames touch no device state, so
// every injection point lands inside COMMIT — exactly the window the
// all-or-none promise covers:
//
//  1. every request acked before BEGIN stays durable,
//  2. the crashed transaction is all-or-none — never a prefix, and
//  3. a completed conversation leaves no handle behind in the server
//     table.
func TestTxnCrashMatrix(t *testing.T) {
	for _, mode := range []rewind.CommitMode{rewind.UndoRedo, rewind.RedoOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			n := crashtest.Explore(t, serverCase(rewind.Options{
				ArenaSize: 32 << 20, CommitMode: mode,
				GroupCommit: true, GroupCommitWindow: 0, GroupCommitMax: 1,
			}, func() crashtest.Model[*kv.Store] { return &txnRun{} }))
			if n < 9 {
				t.Fatalf("only %d durable operations in the commit; injection is not covering it", n)
			}
		})
	}
}

type txnRun struct{ md crashtest.KVModel }

func (r *txnRun) Run(kvs *kv.Store, arm func()) error {
	srv := New(kvs)
	defer srv.Close() // stops the idle sweeper BEGIN starts
	if err := ackedPhase(srv, &r.md); err != nil {
		return err
	}
	r.md.Plan(batchOps...)
	arm()
	err := r.md.Send(func(op []crashtest.Write) error {
		resp, err := send(srv, 90, wire.OpBegin, nil)
		if err != nil {
			return err
		}
		tid := binary.LittleEndian.Uint64(resp)
		for i, w := range op {
			body := wire.AppendU64(wire.AppendU64(nil, tid), w.Key)
			frame := wire.OpTxnDel
			if !w.Delete {
				body, frame = wire.AppendBytes(body, w.Value), wire.OpTxnPut
			}
			if _, err := send(srv, uint32(91+i), frame, body); err != nil {
				return err
			}
		}
		_, err = send(srv, 99, wire.OpCommit, wire.AppendU64(nil, tid))
		return err
	})
	if err != nil {
		return err
	}
	// The conversation completed: COMMIT must have consumed the handle.
	srv.txnMu.Lock()
	live := len(srv.txns)
	srv.txnMu.Unlock()
	if live != 0 {
		return fmt.Errorf("%d txn handles leaked after commit", live)
	}
	return nil
}

func (r *txnRun) Check(kvs *kv.Store, crashed bool) error { return r.md.Check(kvs) }

// TestTxnEndToEnd drives the interactive-transaction surface over real
// TCP: read-your-writes inside the handle, invisibility before commit,
// visibility after, buffered delete, rollback discarding everything, and
// the conflict path when a for-update read is overwritten underneath.
func TestTxnEndToEnd(t *testing.T) {
	srv, addr := startServer(t, true)
	cl := client.Dial(addr, client.Options{Conns: 2})
	defer cl.Close()

	if err := cl.Put(1, []byte("base")); err != nil {
		t.Fatal(err)
	}

	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(1, []byte("txn")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(2, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the handle.
	if v, err := tx.Get(1); err != nil || string(v) != "txn" {
		t.Fatalf("txn Get(1) = %q, %v", v, err)
	}
	if v, err := tx.Get(2); err != nil || string(v) != "fresh" {
		t.Fatalf("txn Get(2) = %q, %v", v, err)
	}
	// Buffered delete of a buffered write.
	if found, err := tx.Delete(2); err != nil || !found {
		t.Fatalf("txn Delete(2) = %v, %v", found, err)
	}
	if _, err := tx.Get(2); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("txn Get after buffered delete = %v", err)
	}
	// Invisible outside until commit.
	if v, err := cl.Get(1); err != nil || string(v) != "base" {
		t.Fatalf("non-txn Get(1) = %q, %v before commit", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get(1); err != nil || string(v) != "txn" {
		t.Fatalf("Get(1) after commit = %q, %v", v, err)
	}
	if _, err := cl.Get(2); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("deleted-in-txn key visible after commit: %v", err)
	}
	// Finished handle rejects further use.
	if err := tx.Put(3, []byte("x")); !errors.Is(err, client.ErrTxnFinished) {
		t.Fatalf("Put on committed txn = %v", err)
	}

	// Rollback discards buffered writes.
	tx, err = cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(3, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(3); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("rolled-back write visible: %v", err)
	}

	// Conflict: a for-update read invalidated by an outside writer.
	tx, err = cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tx.GetForUpdate(1); err != nil || string(v) != "txn" {
		t.Fatalf("GetForUpdate(1) = %q, %v", v, err)
	}
	if err := tx.Put(1, []byte("loser")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(1, []byte("winner")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("Commit over invalidated read = %v, want ErrConflict", err)
	}
	if v, err := cl.Get(1); err != nil || string(v) != "winner" {
		t.Fatalf("Get(1) after conflict = %q, %v", v, err)
	}
	st := srv.Stats()
	if st.KV.TxnConflicts == 0 {
		t.Fatalf("conflict not counted: %+v", st.KV)
	}
	if st.TxnsActive != 0 {
		t.Fatalf("TxnsActive = %d after all handles finished", st.TxnsActive)
	}
}

// TestTxnDisconnectRollback: a client that dies mid-transaction leaks no
// handle and publishes no buffered state — the server reaps the handle
// when the connection drops.
func TestTxnDisconnectRollback(t *testing.T) {
	srv, addr := startServer(t, true)
	cl := client.Dial(addr, client.Options{Conns: 1})
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(42, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if a := srv.Stats().TxnsActive; a != 1 {
		t.Fatalf("TxnsActive = %d with one open txn", a)
	}
	cl.Close() // drop the connection without commit or rollback

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().TxnsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("txn handle not reaped %v after disconnect", 5*time.Second)
		}
		time.Sleep(time.Millisecond)
	}
	cl2 := client.Dial(addr, client.Options{Conns: 1})
	defer cl2.Close()
	if _, err := cl2.Get(42); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("buffered write of a dead connection visible: %v", err)
	}
	if rb := srv.Stats().KV.TxnRollbacks; rb == 0 {
		t.Fatal("disconnect reap did not count as a rollback")
	}
}

// TestTxnIdleExpiry: the sweeper rolls back a transaction idle past the
// cap; subsequent frames naming it get a clean error and its buffered
// writes never surface.
func TestTxnIdleExpiry(t *testing.T) {
	st, err := rewind.Open(rewind.Options{ArenaSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Create(st, kv.Config{Stripes: 4, MaxValue: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(kvs)
	srv.SetTxnIdle(40 * time.Millisecond) // before Serve: the sweeper ticks fast
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cl := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
	defer cl.Close()
	tx, err := cl.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(7, []byte("ghost")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().TxnsExpired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle txn never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = tx.Put(8, []byte("late"))
	if err == nil || !strings.Contains(err.Error(), "unknown or expired") {
		t.Fatalf("Put on expired txn = %v, want unknown-or-expired error", err)
	}
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expired-txn error is %T, want *client.ServerError", err)
	}
	if _, err := cl.Get(7); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("expired txn's buffered write visible: %v", err)
	}
}

// TestFrameBuffered pins the header bounds frameBuffered shares with
// ReadFrame: n=5 (the smallest legal frame) counts as buffered once its
// bytes are in, n=4 (corrupt: shorter than id+op) must NOT count as
// buffered even though all its bytes are in — ReadFrame will reject it,
// and claiming it is buffered would skip the ack flush before the stall.
func TestFrameBuffered(t *testing.T) {
	mk := func(n uint32, payload int) *bufio.Reader {
		raw := binary.LittleEndian.AppendUint32(nil, n)
		raw = append(raw, make([]byte, payload)...)
		br := bufio.NewReader(bytes.NewReader(raw))
		br.Peek(1) // force the fill
		return br
	}
	if frameBuffered(mk(4, 4)) {
		t.Fatal("n=4 (below the 5-byte id+op minimum) reported as a buffered frame")
	}
	if !frameBuffered(mk(5, 5)) {
		t.Fatal("n=5 (minimal legal frame, fully buffered) not reported as buffered")
	}
	if frameBuffered(mk(5, 4)) {
		t.Fatal("n=5 with one body byte missing reported as buffered")
	}
	if frameBuffered(mk(wire.MaxFrame+1, 8)) {
		t.Fatal("n>MaxFrame reported as buffered")
	}
}

// TestTxnUnknownHandle: frames naming a handle the connection never
// opened (or another connection owns) get a clean error, not a hang or a
// cross-connection hijack.
func TestTxnUnknownHandle(t *testing.T) {
	_, addr := startServer(t, true)
	clA := client.Dial(addr, client.Options{Conns: 1})
	defer clA.Close()
	clB := client.Dial(addr, client.Options{Conns: 1})
	defer clB.Close()

	txA, err := clA.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Raw frame from B naming A's handle id: conn pinning must reject it.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := wire.AppendU64(nil, txA.ID())
	body = wire.AppendU64(body, 1)
	body = wire.AppendBytes(body, []byte("hijack"))
	if _, err := c.Write(wire.AppendFrame(nil, 1, wire.OpTxnPut, body)); err != nil {
		t.Fatal(err)
	}
	br := newReader(c)
	_, status, resp, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StatusErr || !strings.Contains(string(resp), "unknown or expired") {
		t.Fatalf("cross-connection txn op: status %d %q", status, resp)
	}
	if err := txA.Rollback(); err != nil {
		t.Fatal(err)
	}
}
