package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/wire"
)

// Burst gathering: what a connection does when its read buffer runs dry
// with published commits still waiting for their flush.
//
// A closed-loop client that is answered N requests at once sends N more,
// one write each, a few microseconds apart. A handler that keeps up with
// them finds its buffer empty after every frame, and if it released there
// — flush, reply, read again — it would cut the client's train wherever the
// two happened to stand: the fan-in of a round would follow the relative
// speed of two processes, not the depth the client offers (measured: 8 to
// 26 commits a round for one workload, by how busy the host was). So the
// handlers count instead. unacked is the number of commits published and
// not yet released, over all connections; cohort is how many to gather
// before flushing: half of the largest round seen, because with half the
// clients' requests gathered here and the other half being answered and
// sent again, neither side waits for the other (gathering them all made
// client and server take turns: p50 +19 %). A connection that has
// pipelined before (its previous burst held two requests or more) and runs
// dry while unacked is short of cohort waits for its next frame, up to the
// store's GroupCommitWindow since the last one, instead of releasing; the
// connection whose frame completes the count releases, leads the flush —
// it covers every connection's commits — and wakes the ones still waiting,
// so a cohort is answered together and comes back together. A client that
// sends less than it did pays the window once, and cohort becomes what did
// come; one that sends more is never held: frames found buffered are
// executed whatever the count says, and a round twice the cohort raises it.
// Lone requests (previous burst of one) and bursts without a pending commit
// — reads, inserts and deletes kv has already waited for, any store without
// group commit — never wait.
//
// The window is a read deadline, and Go fires a sub-millisecond deadline on
// an otherwise idle process about a millisecond late: a short cohort may be
// held that long. Nothing else may: a wait ends as soon as the burst's
// first commit is durable, whoever flushed it.

// gather is one connection's share of that: the commits of the burst being
// executed and the size of the one before.
type gather struct {
	first  rewind.Ticket // the burst's first commit still waiting for a flush
	n      int           // such commits in the burst, counted in Server.unacked
	last   int           // requests in the previous burst
	parked bool          // registered in Server.parked, read deadline armed
	gaveUp bool          // the wait for a frame ended without one
}

func (s *Server) durable(t rewind.Ticket) bool { return s.kv.Rewind().TM().Durable(t) }

// executed accounts one executed request's ticket.
func (g *gather) executed(s *Server, t rewind.Ticket) {
	if s.durable(t) {
		return
	}
	if g.n == 0 {
		g.first = t
	}
	g.n++
	s.unacked.Add(1)
}

// wait is asked when the read buffer holds no further frame. It reports
// whether the burst goes on: true once the next frame is wholly buffered,
// false when the burst should be released — nothing to gather for, the
// count is complete, the window passed, or the cohort's commits became
// durable through another connection's flush.
func (g *gather) wait(s *Server, c net.Conn, br *bufio.Reader) bool {
	if g.n == 0 || g.last < 2 || s.window <= 0 || s.unacked.Load() >= s.cohort.Load() {
		return false
	}
	for {
		// The window runs from the last frame, so it is armed anew every time.
		deadline := time.Now().Add(s.window)
		s.gatherMu.Lock()
		c.SetReadDeadline(deadline)
		s.parked[c] = struct{}{}
		s.gatherMu.Unlock()
		g.parked = true
		// Tested after parking: a leader flushes, then wakes whoever is
		// parked; a connection that parks later than that sees the flush here.
		if s.durable(g.first) {
			return false
		}
		err := awaitFrame(br)
		if err == nil {
			return true
		}
		if s.durable(g.first) {
			return false
		}
		// Woken with the window still open and the connection sound: by a
		// flush that came too early to cover this burst. Wait on.
		if !errors.Is(err, os.ErrDeadlineExceeded) || !time.Now().Before(deadline) {
			g.gaveUp = true
			return false
		}
	}
}

// release ends the burst: the connection stops waiting, every request in
// pend is released (Server.release: the durability wait), and if that took
// a flush of this connection's asking the round is recorded and the
// connections parked meanwhile are woken — their commits were in the log
// before the flush, so they find them durable.
func (g *gather) release(s *Server, c net.Conn, pend []request, fr *obs.Flight) {
	if g.parked {
		s.gatherMu.Lock()
		delete(s.parked, c)
		s.gatherMu.Unlock()
		c.SetReadDeadline(time.Time{})
		g.parked = false
	}
	// A flush of this connection's asking is a round of n commits. Waiting
	// out the window for it says the clients now send less: gather for what
	// came. A round of twice the cohort says they send more. Nothing else
	// moves the count — a lone request that flushes while a cohort is on its
	// way says nothing about the cohort.
	leads := g.n > 0 && !s.durable(g.first)
	if n := s.unacked.Load(); leads && g.gaveUp {
		s.cohort.Store(n)
	} else if leads && n/2 > s.cohort.Load() {
		s.cohort.Store(n / 2)
	}
	g.gaveUp = false
	for i := range pend {
		s.release(&pend[i], fr)
	}
	s.unacked.Add(int64(-g.n))
	g.n, g.last = 0, len(pend)
	if leads {
		s.gatherMu.Lock()
		for p := range s.parked {
			p.SetReadDeadline(longAgo)
		}
		s.gatherMu.Unlock()
	}
}

// longAgo is a read deadline that has passed: setting it fails a blocked
// read at once.
var longAgo = time.Unix(1, 0)

var errBadFrame = errors.New("server: frame length out of bounds")

// awaitFrame waits, up to the connection's read deadline, until br holds
// one whole frame; it consumes nothing, so giving up loses nothing. A frame
// ReadFrame will reject, or one the buffer cannot hold (Peek fails), is not
// waited for: the replies queued ahead of it go out first.
func awaitFrame(br *bufio.Reader) error {
	hdr, err := br.Peek(4)
	if err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 5 || n > wire.MaxFrame {
		return errBadFrame
	}
	_, err = br.Peek(4 + int(n))
	return err
}
