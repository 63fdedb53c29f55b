package crashtest

import (
	"bytes"
	"fmt"
)

// KV is the read side of a kv store, as the kv model sees it.
type KV interface {
	Get(key uint64) ([]byte, bool)
	Len() int
	CheckInvariants() error
}

// Write is one key's part of a kv operation: a put, or a delete.
type Write struct {
	Key    uint64
	Value  []byte
	Delete bool
}

// Put and Del build the two kinds of Write.
func Put(key uint64, value []byte) Write { return Write{Key: key, Value: value} }
func Del(key uint64) Write               { return Write{Key: key, Delete: true} }

// KVModel is the contract of the kv and wire API across a crash, shared by
// every kv-level workload. The store starts empty, and Ops plans every
// operation the workload may issue, in issue order; an operation is one
// atomic group of writes (a PUT, a DEL, a swap that applies, a BATCH, a
// committed transaction). The workload counts Issued, the operations sent,
// and Acked, those whose acknowledgement it received. Check accepts exactly
// the states "the first j operations applied, Acked <= j <= Issued": every
// acknowledged operation is present, the operation in flight is all or
// none, nothing unissued exists, and what survives is a prefix of issue
// order. CheckInvariants must hold as well.
type KVModel struct {
	Ops    [][]Write
	Issued int
	Acked  int
}

// Plan appends an operation to Ops.
func (md *KVModel) Plan(ws ...Write) { md.Ops = append(md.Ops, ws) }

// Send issues the next planned operation through fn and counts it
// acknowledged when fn returns nil.
func (md *KVModel) Send(fn func([]Write) error) error {
	md.Issued++
	if err := fn(md.Ops[md.Issued-1]); err != nil {
		return err
	}
	md.Acked++
	return nil
}

// Check holds s to the model.
func (md *KVModel) Check(s KV) error {
	if err := s.CheckInvariants(); err != nil {
		return err
	}
	acked := md.holds(s, md.Acked)
	if acked == nil {
		return nil
	}
	for j := md.Acked + 1; j <= md.Issued; j++ {
		if md.holds(s, j) == nil {
			return nil
		}
	}
	if md.Issued == md.Acked {
		return fmt.Errorf("after %d acknowledged operations, %v", md.Acked, acked)
	}
	return fmt.Errorf("no prefix of the %d operations issued holds, %d of them acknowledged: with those, %v; with all, %v",
		md.Issued, md.Acked, acked, md.holds(s, md.Issued))
}

// holds reports how s differs from the first j operations applied to an
// empty store, if it does.
func (md *KVModel) holds(s KV, j int) error {
	want := map[uint64][]byte{}
	for _, op := range md.Ops[:j] {
		for _, w := range op {
			if w.Delete {
				delete(want, w.Key)
			} else {
				want[w.Key] = w.Value
			}
		}
	}
	seen := map[uint64]bool{}
	for _, op := range md.Ops {
		for _, w := range op {
			if seen[w.Key] {
				continue
			}
			seen[w.Key] = true
			v, ok := s.Get(w.Key)
			if wv, wok := want[w.Key]; ok != wok || !bytes.Equal(v, wv) {
				return fmt.Errorf("key %d is %q (present %v), want %q (present %v)", w.Key, clip(v), ok, clip(wv), wok)
			}
		}
	}
	if n := s.Len(); n != len(want) {
		return fmt.Errorf("the store holds %d keys, want %d", n, len(want))
	}
	return nil
}

// clip shortens a value for a failure message.
func clip(v []byte) []byte {
	if len(v) > 24 {
		return v[:24]
	}
	return v
}
