package server

import (
	"fmt"
	"testing"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// serverCase is the crash case the server's matrices share: a four-stripe
// kv store the workload serves through the server's own request path, held
// to the kv model (crashtest.KVModel) after every recovery.
func serverCase(opts rewind.Options, model func() crashtest.Model[*kv.Store]) crashtest.Case[*kv.Store] {
	cfg := kv.Config{Stripes: 4, MaxValue: 64}
	return crashtest.Case[*kv.Store]{
		Setup: func() (*nvm.Memory, error) {
			st, err := rewind.Open(opts)
			if err != nil {
				return nil, err
			}
			_, err = kv.Create(st, cfg)
			return st.Mem(), err
		},
		Open: func(m *nvm.Memory) (*kv.Store, error) {
			st, err := rewind.Reattach(opts, m)
			if err != nil {
				return nil, err
			}
			return kv.Attach(st, cfg)
		},
		Model: model,
	}
}

// ackedKeys are the keys every server matrix writes and acknowledges
// before its crash window opens, "acked-<k>" each; their log records are
// still live when the window opens.
var ackedKeys = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// ackedPhase plans and sends those PUTs.
func ackedPhase(srv *Server, md *crashtest.KVModel) error {
	for _, k := range ackedKeys {
		md.Plan(crashtest.Put(k, []byte(fmt.Sprintf("acked-%d", k))))
		if err := md.Send(func(op []crashtest.Write) error {
			_, err := send(srv, uint32(k), wire.OpPut, wire.AppendBytes(wire.AppendU64(nil, k), op[0].Value))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// send applies one request through the server's request path and returns
// the reply body, or the refusal as an error.
func send(srv *Server, id uint32, op byte, body []byte) ([]byte, error) {
	resp := srv.apply(nil, id, op, body)
	if resp[8] != wire.StatusOK {
		return nil, fmt.Errorf("request %d refused: %s", id, resp[9:])
	}
	return resp[9:], nil
}

// TestBatchCrashMatrix is the deterministic, in-process variant of the
// SIGKILL torture: it drives the server's own request path (Server.apply,
// the whole data plane minus the sockets), crashes at every
// durable-operation boundary inside a BATCH request, restarts, and checks
// the two invariants the protocol acks promise:
//
//  1. every request acked before the batch is fully durable, and
//  2. the crashed batch is all-or-none: either every one of its ops is
//     visible after recovery or none is — never a prefix.
func TestBatchCrashMatrix(t *testing.T) {
	n := crashtest.Explore(t, serverCase(rewind.Options{
		ArenaSize: 32 << 20, GroupCommit: true, GroupCommitWindow: 0, GroupCommitMax: 1,
	}, func() crashtest.Model[*kv.Store] { return &batchRun{} }))
	if n < 9 {
		t.Fatalf("only %d durable operations in the batch; injection is not covering the batch", n)
	}
}

// batchOps is the torture BATCH: an overwrite, fresh inserts and deletes,
// spread across stripes.
var batchOps = []crashtest.Write{
	crashtest.Put(2, []byte("overwritten")), // overwrite acked key
	crashtest.Put(101, []byte("fresh-a")),   // fresh inserts
	crashtest.Put(102, []byte("fresh-b")),
	crashtest.Put(103, []byte("fresh-c")),
	crashtest.Del(5), // delete acked keys
	crashtest.Del(9),
}

// batchBody encodes ws as a BATCH request body.
func batchBody(ws []crashtest.Write) []byte {
	body := wire.AppendU32(nil, uint32(len(ws)))
	for _, w := range ws {
		if w.Delete {
			body = wire.AppendU64(append(body, 1), w.Key)
		} else {
			body = wire.AppendBytes(wire.AppendU64(append(body, 0), w.Key), w.Value)
		}
	}
	return body
}

type batchRun struct{ md crashtest.KVModel }

func (r *batchRun) Run(kvs *kv.Store, arm func()) error {
	srv := New(kvs)
	if err := ackedPhase(srv, &r.md); err != nil {
		return err
	}
	r.md.Plan(batchOps...)
	arm()
	return r.md.Send(func(op []crashtest.Write) error {
		_, err := send(srv, 99, wire.OpBatch, batchBody(op))
		return err
	})
}

func (r *batchRun) Check(kvs *kv.Store, crashed bool) error { return r.md.Check(kvs) }
