package rlog

import (
	"github.com/rewind-db/rewind/internal/nvm"
)

// Iter walks the live records of a log. An open iterator holds the log's
// clear-lock shared, so clearing passes (which would invalidate it, §2)
// wait until it is closed; appends proceed concurrently. Always Close an
// iterator.
type Iter struct {
	l      *Log
	node   uint64 // current ADLL node; Null when before-first/after-last
	pos    int    // current cell (bucketed kinds)
	rec    uint64 // current record address
	closed bool
}

// Begin returns an iterator positioned before the first record; call Next.
func (l *Log) Begin() *Iter {
	l.clearMu.RLock()
	return &Iter{l: l, node: nvm.Null, pos: -1}
}

// End returns an iterator positioned after the last record; call Prev.
func (l *Log) End() *Iter {
	l.clearMu.RLock()
	return &Iter{l: l, node: nvm.Null, pos: -1}
}

// Close releases the iterator. It is idempotent.
func (it *Iter) Close() {
	if !it.closed {
		it.closed = true
		it.l.clearMu.RUnlock()
	}
}

// Record returns the record at the current position. It is only valid
// after Next or Prev returned true.
func (it *Iter) Record() Record { return View(it.l.mem, it.rec) }

// Next advances to the next live record, skipping gaps. It reports whether
// a record is available.
func (it *Iter) Next() bool {
	l := it.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.Kind == Simple {
		if it.node == nvm.Null && it.pos == -1 {
			it.node = l.list.head()
		} else if it.node != nvm.Null {
			it.node = l.list.next(it.node)
		}
		it.pos = 0
		if it.node == nvm.Null {
			it.pos = -2 // exhausted: a later Next must not restart
			return false
		}
		it.rec = l.list.element(it.node)
		return true
	}
	// Bucketed kinds: advance cell, then bucket, skipping gaps.
	if it.node == nvm.Null {
		if it.pos == -2 {
			return false
		}
		it.node = l.list.head()
		it.pos = -1
	}
	for it.node != nvm.Null {
		bucket := l.list.element(it.node)
		st := l.states[bucket]
		for it.pos++; it.pos < st.next; it.pos++ {
			if v := l.mem.Load64(cellAddr(bucket, it.pos)); v != 0 && v != tombstone {
				it.rec = v
				return true
			}
		}
		it.node = l.list.next(it.node)
		it.pos = -1
	}
	it.pos = -2
	return false
}

// Prev moves to the previous live record, skipping gaps. It reports whether
// a record is available.
func (it *Iter) Prev() bool {
	l := it.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cfg.Kind == Simple {
		if it.node == nvm.Null && it.pos == -1 {
			it.node = l.list.tail()
		} else if it.node != nvm.Null {
			it.node = l.list.prior(it.node)
		}
		it.pos = 0
		if it.node == nvm.Null {
			it.pos = -2
			return false
		}
		it.rec = l.list.element(it.node)
		return true
	}
	if it.node == nvm.Null {
		if it.pos == -2 {
			return false
		}
		it.node = l.list.tail()
		if it.node == nvm.Null {
			it.pos = -2
			return false
		}
		it.pos = l.states[l.list.element(it.node)].next
	}
	for it.node != nvm.Null {
		bucket := l.list.element(it.node)
		for it.pos--; it.pos >= 0; it.pos-- {
			if v := l.mem.Load64(cellAddr(bucket, it.pos)); v != 0 && v != tombstone {
				it.rec = v
				return true
			}
		}
		it.node = l.list.prior(it.node)
		if it.node != nvm.Null {
			it.pos = l.states[l.list.element(it.node)].next
		}
	}
	it.pos = -2
	return false
}

// ClearAction tells ClearScan what to do with a visited record.
type ClearAction int

const (
	// Keep leaves the record in place.
	Keep ClearAction = iota
	// Remove clears the record from the log but leaves a block of its own
	// alive (used for END records that a later step deletes, and for
	// records whose blocks the caller owns).
	Remove
	// RemoveFree clears the record and frees its block, if it has one: a
	// record inside its bucket is released with the bucket.
	RemoveFree
	// Stop ends the scan early, keeping the record.
	Stop
)

// ClearScan runs a clearing pass over the log: fn is called for every live
// record (backwards when backward is set, the direction §4.6 uses when
// clearing after commit) and decides its fate. The pass holds the clear
// lock exclusively — this is the paper's coarser-grained clearing lock that
// waits out concurrent iterators — while appends remain possible: mu is
// released while the pass walks a closed bucket and calls fn there, and held
// only over the tail bucket, the one appenders flush.
//
// Clearing a record tombstones its cell; a bucket whose last record is
// cleared is removed from the ADLL and freed, records in its area with it,
// unless it is the active tail bucket (Simple nodes are unlinked directly).
func (l *Log) ClearScan(backward bool, fn func(r Record) ClearAction) {
	l.clearMu.Lock()
	defer l.clearMu.Unlock()
	if l.cfg.Kind == Simple {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.clearScanSimple(backward, fn)
		return
	}
	l.mu.Lock()
	node := l.list.head()
	if backward {
		node = l.list.tail()
	}
	l.mu.Unlock()
	for stop := false; node != nvm.Null && !stop; {
		node, stop = l.clearBucket(node, backward, fn)
	}
}

// clearBucket is ClearScan's step over one bucket; it returns the node to
// visit next. A closed bucket is walked without mu: only a clearing pass
// touches its cells, and the caller holds clearMu. The tail bucket is walked
// under mu, because an appender's group flush writes back whole cell lines
// and would persist whichever tombstones share them — a transaction's END
// tombstone ahead of the ones before it (§4.6 wants it last).
func (l *Log) clearBucket(node uint64, backward bool, fn func(r Record) ClearAction) (next uint64, stop bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bucket := l.list.element(node)
	st := l.states[bucket]
	removed := 0
	if node == l.list.tail() {
		removed, stop = l.clearCells(bucket, st, backward, fn)
	} else {
		func() {
			l.mu.Unlock()
			defer l.mu.Lock()
			removed, stop = l.clearCells(bucket, st, backward, fn)
		}()
	}
	st.live -= removed
	l.live -= removed
	next = l.list.next(node)
	if backward {
		next = l.list.prior(node)
	}
	switch {
	case st.live == 0 && node != l.list.tail():
		l.list.remove(node)
		l.a.Free(bucket)
		l.bucketBytes -= int64(st.end - bucket)
		delete(l.states, bucket)
	case st.live == 0 && l.live == 0 && st.next > 0:
		// The whole log is empty: recycle the tail bucket's cells and
		// area so that workloads which clear after every operation (the
		// AAVLT does, §3.4) do not rescan an ever-growing tombstone field.
		// Zeroed cells are what rebuild expects of unused space. Every
		// cell is a durable tombstone by now, so none can come back after
		// a crash pointing at area bytes a new record has overwritten.
		l.mem.Zero(cellAddr(bucket, 0), st.next*8)
		l.mem.FlushRange(cellAddr(bucket, 0), st.next*8)
		l.mem.Fence()
		st.next, st.bump = 0, l.areaBase(bucket)
		l.pendingFrom, l.pendingArea, l.pendingOwn = 0, st.bump, false
	}
	return next, stop
}

// clearCells offers every live record of one bucket to fn and tombstones
// the ones it drops, returning how many.
func (l *Log) clearCells(bucket uint64, st *bucketState, backward bool, fn func(r Record) ClearAction) (removed int, stop bool) {
	// Tombstones within a bucket are written with cached stores and
	// flushed together when the scan leaves the bucket: eight cleared
	// cells share a line, so clearing costs one NVM write per line
	// instead of one per record. A crash between the stores and the
	// flush merely resurrects records of finished transactions, which
	// the next clearing pass removes again; the per-bucket flush order
	// preserves the END-record-last guarantee of §4.6 because a
	// transaction's END is its newest record and the forward clearing
	// scan reaches its bucket last.
	lo, hi := -1, -1
	var toFree []uint64
	for i, n := 0, st.next; i < n && !stop; i++ {
		pos := i
		if backward {
			pos = n - 1 - i
		}
		addr := cellAddr(bucket, pos)
		v := l.mem.Load64(addr)
		if v == 0 || v == tombstone {
			continue
		}
		act := fn(View(l.mem, v))
		switch act {
		case Keep:
		case Stop:
			stop = true
		case Remove, RemoveFree:
			l.mem.Store64(addr, tombstone)
			if lo == -1 || pos < lo {
				lo = pos
			}
			if pos > hi {
				hi = pos
			}
			removed++
			if act == RemoveFree && !st.owns(bucket, v) {
				// Free only after the tombstones are durable: a crash
				// before the flush resurrects the cell, which must not
				// point at recycled memory.
				toFree = append(toFree, v)
			}
		}
	}
	if lo != -1 {
		l.mem.FlushRange(cellAddr(bucket, lo), (hi-lo+1)*8)
		l.mem.Fence()
	}
	for _, v := range toFree {
		l.a.Free(v)
	}
	return removed, stop
}

func (l *Log) clearScanSimple(backward bool, fn func(r Record) ClearAction) {
	node := l.list.head()
	if backward {
		node = l.list.tail()
	}
	for node != nvm.Null {
		next := l.list.next(node)
		if backward {
			next = l.list.prior(node)
		}
		rec := l.list.element(node)
		switch fn(View(l.mem, rec)) {
		case Keep:
		case Stop:
			return
		case Remove:
			l.list.remove(node)
			l.live--
		case RemoveFree:
			l.list.remove(node)
			l.live--
			l.a.Free(rec)
		}
		node = next
	}
}

// Reset clears the whole log with the three-step protocol of §4.5: create
// a new (empty) log, atomically switch the root pointer to it, then
// deallocate the old structure. "De-allocating the entire log is faster
// compared to individually removing its records." When freeRecords is set,
// records in blocks of their own are freed too; those inside a bucket go
// with it either way.
func (l *Log) Reset(freeRecords bool) {
	l.clearMu.Lock()
	defer l.clearMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()

	m := l.mem
	oldHdr := l.hdr
	oldHead, oldStates := l.list.head(), l.states

	// Step (b): create the new log header.
	hdr := l.a.Alloc(lhSize)
	m.Zero(hdr, lhSize)
	m.Store64(hdr+lhKind, kindWord(l.cfg.Kind))
	m.Store64(hdr+lhBucketSize, uint64(l.cfg.BucketSize))
	m.FlushRange(hdr, lhSize)
	m.Fence()
	// Atomic switch: after this durable store the old log is unreachable.
	l.a.SetRoot(l.cfg.RootSlot, hdr)
	l.hdr = hdr
	l.list = adll{mem: m, a: l.a, hdr: hdr + lhADLL}
	l.states = make(map[uint64]*bucketState)
	l.live, l.bucketBytes = 0, 0
	l.pendingFrom, l.pendingArea, l.pendingEnd, l.pendingOwn = 0, 0, 0, false

	// Step (c): deallocate the old structure. A crash mid-way only leaks.
	for node := oldHead; node != nvm.Null; {
		next := m.Load64(node + nodeNext)
		element := m.Load64(node + nodeElement)
		if l.cfg.Kind == Simple {
			if freeRecords {
				l.a.Free(element)
			}
		} else {
			if freeRecords {
				for pos := 0; pos < l.cfg.BucketSize; pos++ {
					if v := m.Load64(cellAddr(element, pos)); v != 0 && v != tombstone && !oldStates[element].owns(element, v) {
						l.a.Free(v)
					}
				}
			}
			l.a.Free(element)
		}
		l.a.Free(node)
		node = next
	}
	l.a.Free(oldHdr)
}
