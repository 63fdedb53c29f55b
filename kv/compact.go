package kv

// Background heap compaction.
//
// Deleting keys frees tree nodes back to the allocator, but freed blocks
// scattered through a segment keep its pages allocated forever. The
// compactor picks the deadest segment (per-segment occupancy comes from
// the allocator), fences it off so no new allocation lands there, migrates
// the live tree nodes still inside it — **inside ordinary transactions**,
// one bounded transaction at a time per stripe, so a crash at any point is
// covered by the same WAL machinery as any Put — and then asks the
// allocator to coalesce the now-dead range and hole-punch its pages out of
// the backing file. This is the idiom of Sauer & Härder's redo-only
// recovery work: space management runs as ordinary logged work, so it
// needs no crash-safety machinery of its own.
//
// rewindd drives CompactStep from its checkpoint ticker; embedders can
// call it whenever they like (it is a no-op when no segment is dead
// enough).

import (
	"fmt"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/pmem"
)

// CompactConfig tunes one compaction step.
type CompactConfig struct {
	// DeadFraction is the freed/(live+freed) threshold above which a
	// segment is condemned (default 0.6).
	DeadFraction float64
	// MinDeadBytes is the minimum freed byte count a segment needs before
	// compaction is worth its transactions (default 64 KiB).
	MinDeadBytes int64
	// MaxMovesPerTxn bounds the tree nodes migrated per transaction, which
	// bounds both the WAL burst and the stripe-exclusive hold time
	// (default 64).
	MaxMovesPerTxn int
}

func (c CompactConfig) withDefaults() CompactConfig {
	if c.DeadFraction <= 0 {
		c.DeadFraction = 0.6
	}
	if c.MinDeadBytes <= 0 {
		c.MinDeadBytes = 64 << 10
	}
	if c.MaxMovesPerTxn <= 0 {
		c.MaxMovesPerTxn = 64
	}
	return c
}

// CompactResult reports what one CompactStep did.
type CompactResult struct {
	// Compacted is false when no segment met the condemnation threshold
	// (the step was a no-op).
	Compacted bool
	// Start/End bound the compacted segment.
	Start, End uint64
	// Moved is the number of tree nodes migrated out of the segment.
	Moved int
	// Released is the number of bytes hole-punched back to the OS.
	Released int64
}

// CompactStep runs one compaction cycle: condemn the deadest eligible
// segment, migrate every stripe's live nodes out of it in bounded
// transactions, then reclaim and hole-punch the emptied range. The segment
// holding the bump watermark is compactable too — its condemned range is
// clamped at the watermark, so fresh bump allocations (which land at or
// above it) never enter the range. Safe to run concurrently with reads and
// writes; concurrent with itself it is serialized by the allocator fence
// being coarse (callers should not overlap steps).
func (s *Store) CompactStep(cfg CompactConfig) (CompactResult, error) {
	cfg = cfg.withDefaults()
	alloc := s.st.Allocator()
	bump := uint64(pmem.HeapBase + alloc.HeapUsed())
	var best *pmem.SegmentStats
	var bestEnd uint64
	for _, seg := range alloc.Segments() {
		seg := seg
		end := seg.End
		if seg.Bump {
			end = bump
		}
		if end <= seg.Start {
			continue
		}
		// Dead space a prior Reclaim already coalesced and punched does
		// not count toward re-condemnation, so a quiet store converges.
		dead := seg.Freed - seg.Reclaimed
		span := seg.Live + seg.Freed
		if span == 0 || dead < cfg.MinDeadBytes {
			continue
		}
		if float64(dead)/float64(span) < cfg.DeadFraction {
			continue
		}
		if best == nil || dead > best.Freed-best.Reclaimed {
			best = &seg
			bestEnd = end
		}
	}
	if best == nil {
		return CompactResult{}, nil
	}
	res := CompactResult{Compacted: true, Start: best.Start, End: bestEnd}
	// Fence first: from here no allocation is served from the condemned
	// range, so migrated nodes cannot land back inside it.
	alloc.SetReclaiming(best.Start, bestEnd)
	defer alloc.SetReclaiming(0, 0)
	for i, sp := range s.stripes {
		for {
			var moved int
			var done bool
			tk, err := s.updatePinned(sp, nil, func(tx *rewind.Tx) error {
				var err error
				moved, done, err = sp.tree.MigrateRange(tx, best.Start, bestEnd, cfg.MaxMovesPerTxn)
				return err
			})
			s.st.WaitDurable(tk, nil)
			if err != nil {
				return res, fmt.Errorf("kv: compacting stripe %d: %w", i, err)
			}
			res.Moved += moved
			if done {
				break
			}
		}
	}
	released, err := alloc.Reclaim(best.Start, bestEnd)
	res.Released = released
	if err != nil {
		return res, fmt.Errorf("kv: reclaiming [%#x,%#x): %w", best.Start, bestEnd, err)
	}
	s.compactions.Add(1)
	s.compactMoved.Add(int64(res.Moved))
	s.compactReleased.Add(released)
	return res, nil
}
