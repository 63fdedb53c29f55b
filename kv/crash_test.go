package kv

import (
	"fmt"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/crashtest"
	"github.com/rewind-db/rewind/internal/nvm"
)

// crashCase is the crash case kv's matrices share: a store created once and
// filled by fill (when not nil), reopened by rewind.Reattach and Attach for
// every run and after every crash, its runs held to the kv model
// (crashtest.KVModel).
func crashCase(opts rewind.Options, cfg Config, fill func(*Store) error, model func() crashtest.Model[*Store]) crashtest.Case[*Store] {
	return crashtest.Case[*Store]{
		Setup: func() (*nvm.Memory, error) {
			st, err := rewind.Open(opts)
			if err != nil {
				return nil, err
			}
			s, err := Create(st, cfg)
			if err == nil && fill != nil {
				err = fill(s)
			}
			return st.Mem(), err
		},
		Open: func(m *nvm.Memory) (*Store, error) {
			st, err := rewind.Reattach(opts, m)
			if err != nil {
				return nil, err
			}
			return Attach(st, cfg)
		},
		Model: model,
	}
}

// apply issues a planned one-write operation through Put or Delete.
func apply(s *Store) func([]crashtest.Write) error {
	return func(op []crashtest.Write) error {
		w := op[0]
		if !w.Delete {
			return s.Put(w.Key, w.Value)
		}
		if found, err := s.Delete(w.Key); err != nil || !found {
			return fmt.Errorf("Delete(%d) = %v, %v", w.Key, found, err)
		}
		return nil
	}
}
