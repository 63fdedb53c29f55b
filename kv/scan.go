package kv

// Pair is one key/value result.
type Pair struct {
	Key   uint64
	Value []byte
}

// scanSeqPollEvery is how many records an optimistic stripe walk collects
// between seqlock polls: long walks over a mutating stripe abort early
// instead of collecting a whole garbage pass.
const scanSeqPollEvery = 64

// scanKeepEntries caps the lists a recycled scanScratch may keep: an
// unlimited scan of a large store drops its scratch rather than pin it.
const scanKeepEntries = 4096

// scanPassHook, when non-nil, runs between a scan's two passes. Tests use
// it to write to a stripe after its addresses were collected and before
// their values are copied, or to look at the latches a latched scan holds;
// it is nil in production.
var scanPassHook func()

// scanEntry is one candidate of pass 1: a key, the address of its record,
// and — filled in by pass 2 — the record's clamped payload length.
type scanEntry struct {
	key, addr, n uint64
}

// scanStripeState is what a scan remembers of one stripe.
type scanStripeState struct {
	seq  uint64 // the seqlock word its walk validated against
	won  bool   // it holds a winner, as markWinners left it
	held bool   // a latched scan holds its latch
}

// scanInitEntries is the capacity a fresh scanScratch gives each list, so
// that a short scan on a fresh scratch allocates nothing more for them: the
// race detector's sync.Pool drops a quarter of what is put back, and
// server.TestScanReplyAllocs under -race counts those fresh scratches.
const scanInitEntries = 16

// scanScratch is one Scan's working memory, recycled through Store.scratch.
type scanScratch struct {
	top     []scanEntry // the answer so far: sorted, at most limit entries
	merged  []scanEntry // merge target, swapped with top
	run     []scanEntry // the current stripe's walk
	stripes []scanStripeState
	init    [3 * scanInitEntries]scanEntry
}

func (s *Store) getScratch() *scanScratch {
	sc, _ := s.scratch.Get().(*scanScratch)
	if sc == nil {
		sc = &scanScratch{stripes: make([]scanStripeState, len(s.stripes))}
		const n = scanInitEntries
		sc.top, sc.merged, sc.run = sc.init[:0:n], sc.init[n:n:2*n], sc.init[2*n:2*n:3*n]
	}
	return sc
}

func (s *Store) putScratch(sc *scanScratch) {
	if cap(sc.top) > scanKeepEntries || cap(sc.merged) > scanKeepEntries || cap(sc.run) > scanKeepEntries {
		return
	}
	s.scratch.Put(sc)
}

// Scan returns up to limit pairs with keys in [from, to], globally sorted
// by key; limit <= 0 means every pair in the range, however many (an
// earlier revision silently capped "unlimited" at 1<<20 pairs, truncating
// scans of larger stores with no error). The result is consistent per
// stripe, not a global snapshot: concurrent writers may land between
// stripe visits, as in any latch-striped map.
//
// It reads in two passes (DESIGN.md §6). Pass 1 visits the stripes in
// order and, under each one's seqlock, collects only keys and record
// addresses, merging each stripe's run into the limit smallest keys seen
// so far; once that list is full its last key bounds the later walks.
// Pass 2 copies the winners' values and then re-checks the seqlock word of
// every stripe that holds a winner: unchanged since its walk, no writer has
// touched the stripe, so every address still names the record it named.
// A stripe whose walk met a writer, or a changed word in pass 2, discards
// the whole attempt. After readAttempts discarded attempts — or at once
// under Config.ExclusiveReads — the scan runs latched (scanLatched).
func (s *Store) Scan(from, to uint64, limit int) []Pair {
	s.scans.Add(1)
	sc := s.getScratch()
	defer s.putScratch(sc)
	if !s.cfg.ExclusiveReads {
		for attempt := 0; attempt < readAttempts; attempt++ {
			if s.collect(sc, from, to, limit) {
				if scanPassHook != nil {
					scanPassHook()
				}
				if out := s.copyOut(sc); s.unchanged(sc) {
					return out
				}
			}
			s.readRetries.Add(1)
		}
		s.readFallbacks.Add(1)
	}
	return s.scanLatched(sc, from, to, limit)
}

// collect is an optimistic pass 1: it leaves in sc.top the (at most limit)
// smallest keys in [from, to] across all stripes, with their record
// addresses, and in sc.stripes the seqlock word each stripe's walk validated
// against. Each stripe is walked once; it reports false — the attempt is
// garbage — as soon as a walk finds writers inside or sees its word move.
func (s *Store) collect(sc *scanScratch, from, to uint64, limit int) bool {
	sc.top = sc.top[:0]
	hi := to
	for i, sp := range s.stripes {
		seq, ok := optimistic(sp, func(seq uint64) bool { return sc.walk(sp, from, hi, limit, seq) })
		if !ok {
			return false
		}
		sc.stripes[i].seq = seq
		hi = sc.merge(limit, hi)
	}
	return true
}

// unchanged is the check that ends an optimistic pass 2: it reports whether
// every stripe holding a winner still has the seqlock word its walk saw. If
// not, an address may have gone stale before its copy and the copy is
// garbage.
func (s *Store) unchanged(sc *scanScratch) bool {
	s.markWinners(sc)
	for i, sp := range s.stripes {
		if st := sc.stripes[i]; st.won && sp.seq.Load() != st.seq {
			return false
		}
	}
	return true
}

// scanLatched runs both passes with latches in place of the seqlock. It
// takes each stripe's latch, in ascending order, before walking it, and
// keeps a latch only while its stripe holds a winner: a stripe whose walk
// found nothing, or whose keys a later stripe pushed out of the answer, is
// released at once. Pass 2 thus copies under the latches of exactly the
// stripes the answer comes from, and writers elsewhere are held up for one
// walk at most.
func (s *Store) scanLatched(sc *scanScratch, from, to uint64, limit int) []Pair {
	sc.top = sc.top[:0]
	defer s.unlatch(sc, true)
	hi := to
	for i, sp := range s.stripes {
		sp.wmu.Lock()
		sc.stripes[i].held = true
		sc.walk(sp, from, hi, limit, sp.seq.Load())
		lost := len(sc.run) == 0 || limit > 0 && len(sc.top)+len(sc.run) > limit
		hi = sc.merge(limit, hi)
		if lost {
			s.markWinners(sc)
			s.unlatch(sc, false)
		}
	}
	if scanPassHook != nil {
		scanPassHook()
	}
	return s.copyOut(sc)
}

// unlatch releases the latch of every stripe the scan holds one on that has
// no winner, or with all set, of every stripe it holds one on.
func (s *Store) unlatch(sc *scanScratch, all bool) {
	for i := range sc.stripes {
		if st := &sc.stripes[i]; st.held && (all || !st.won) {
			s.stripes[i].wmu.Unlock()
			st.held = false
		}
	}
}

// walk collects into sc.run the keys in [from, hi] of sp's tree with their
// record addresses, at most limit of them (limit <= 0: all). It polls the
// seqlock every scanSeqPollEvery records and gives up, reporting false,
// once the word is no longer seq.
func (sc *scanScratch) walk(sp *stripe, from, hi uint64, limit int, seq uint64) bool {
	sc.run = sc.run[:0]
	torn := false
	complete := sp.tree.ScanRecords(from, hi, func(k, addr uint64) bool {
		sc.run = append(sc.run, scanEntry{key: k, addr: addr})
		if len(sc.run)%scanSeqPollEvery == 0 && sp.seq.Load() != seq {
			torn = true
			return false
		}
		return limit <= 0 || len(sc.run) < limit
	})
	return complete && !torn
}

// merge folds the stripe's run into the answer so far and returns the bound
// for later walks: hi, or the answer's last key once it holds limit keys.
// Both lists are sorted and no key lives in two stripes, so a two-way
// merge cut at limit keeps the limit smallest keys seen.
func (sc *scanScratch) merge(limit int, hi uint64) uint64 {
	if len(sc.top) == 0 {
		sc.top, sc.run = sc.run, sc.top
	} else {
		n := len(sc.top) + len(sc.run)
		if limit > 0 && n > limit {
			n = limit
		}
		a, b, m := sc.top, sc.run, sc.merged[:0]
		for len(m) < n {
			if len(b) == 0 || (len(a) > 0 && a[0].key < b[0].key) {
				m, a = append(m, a[0]), a[1:]
			} else {
				m, b = append(m, b[0]), b[1:]
			}
		}
		sc.top, sc.merged = m, sc.top
	}
	if limit > 0 && len(sc.top) == limit {
		return sc.top[limit-1].key
	}
	return hi
}

// markWinners marks won exactly the stripes holding a winner.
func (s *Store) markWinners(sc *scanScratch) {
	for i := range sc.stripes {
		sc.stripes[i].won = false
	}
	for _, e := range sc.top {
		sc.stripes[s.stripeIndex(e.key)].won = true
	}
}

// copyOut is pass 2: it copies the winners' values into one buffer — length
// word first, clamped as readValue clamps it — and returns the pairs. What
// makes the addresses safe to follow is the caller's business: the latches
// it holds, or unchanged afterwards.
func (s *Store) copyOut(sc *scanScratch) []Pair {
	if len(sc.top) == 0 {
		return nil
	}
	total := uint64(0)
	for i := range sc.top {
		n := s.mem.Load64(sc.top[i].addr)
		if n > uint64(s.cfg.MaxValue) {
			n = uint64(s.cfg.MaxValue)
		}
		sc.top[i].n = n
		total += n
	}
	buf := make([]byte, total)
	out := make([]Pair, len(sc.top))
	for i, e := range sc.top {
		v := buf[:e.n:e.n]
		buf = buf[e.n:]
		s.mem.Read(e.addr+8, v)
		out[i] = Pair{Key: e.key, Value: v}
	}
	return out
}
