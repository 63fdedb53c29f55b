// Package server exposes a kv.Store over TCP — the rewindd service layer.
//
// The protocol (internal/wire) is length-prefixed binary: GET / PUT / DEL /
// SCAN / BATCH / STATS (and transaction, CAS and chunked-read) frames with
// a client-chosen request id. Each accepted connection gets one goroutine
// that runs every frame through execute → publish → durable → reply and
// answers in arrival order; clients may pipeline as many requests as they
// like, and pipelining pays: the loop executes and PUBLISHES every frame
// already in its read buffer — each mutation's commit joins the log and
// becomes visible, and kv hands back a ticket instead of waiting — before
// it waits for any of them to be durable, so a burst of N mutations on one
// socket shares one log flush the way N connections committing at once do.
// Both shapes end in the same group-commit rounds and the durability ack
// each PUT waits for costs a fraction of a fence. A loop whose buffer runs
// dry part-way through the cohort its clients sent last time waits for the
// next frame, up to the group-commit window, rather than cut the cohort
// there (gather.go).
//
// The ack rule: no response to a mutation is handed to the socket before
// its ticket is durable (Server.release is the one place that waits), and
// responses leave strictly in arrival order, so a read's reply — which may
// carry a value that is published but not yet durable, its own
// connection's included — is still held behind every earlier mutation on
// its connection. What pipelines is the overwrite of an existing key; kv
// waits for everything else before it returns — a PUT that inserts, a DEL
// that removes, a BATCH, an interactive COMMIT — and such a frame simply
// acts as a barrier in the burst.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/internal/wire"
	"github.com/rewind-db/rewind/kv"
)

// bufSize sizes the per-connection reader and writer (pipelining depth).
const bufSize = 64 << 10

func newReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, bufSize) }
func newWriter(c net.Conn) *bufio.Writer { return bufio.NewWriterSize(c, bufSize) }

// scanPage bounds a SCAN response page so that even a page of maximum-
// size values fits one wire frame; clients resume from the last returned
// key for larger ranges.
func (s *Server) scanPage() int {
	page := (wire.MaxFrame - 64) / (12 + s.kv.Config().MaxValue)
	if page < 1 {
		page = 1
	}
	return page
}

// Server serves a kv.Store over a listener.
type Server struct {
	kv  *kv.Store
	obs *obs.Obs // the store's observability state (nil when off)

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	flights  map[net.Conn]*obs.Flight
	closed   bool
	handlers sync.WaitGroup

	accepted atomic.Int64
	requests atomic.Int64
	errored  atomic.Int64

	// Burst gathering (gather.go). window is the store's group-commit
	// window, zero without group commit; gatherMu guards parked, the
	// connections waiting for a frame, and every read deadline set on them.
	window   time.Duration
	unacked  atomic.Int64
	cohort   atomic.Int64
	gatherMu sync.Mutex
	parked   map[net.Conn]struct{}

	// Interactive-transaction state (server/txn.go). txnMu guards the
	// server-wide table and every per-connection one; txnIdle is the
	// idle-rollback cap in nanoseconds; the sweeper runs only once Serve
	// has been called and stops at Close.
	txnMu       sync.Mutex
	txns        map[uint64]*liveTxn
	defaultCS   *connState
	txnSeq      atomic.Uint64
	txnIdle     atomic.Int64
	txnsExpired atomic.Int64
	sweepStop   chan struct{}
	sweepStart  sync.Once
	sweepHalt   sync.Once
}

// New wraps a kv store in a server. The server records into the store's
// observability state (kv.Config.Obs): per-request spans with commit
// phase timings, a per-connection flight-recorder ring, and slow-op
// capture. All of it is off (one nil test per request) when the store was
// built without obs.
func New(s *kv.Store) *Server {
	srv := &Server{kv: s, obs: s.Obs(), conns: map[net.Conn]struct{}{},
		parked: map[net.Conn]struct{}{}, sweepStop: make(chan struct{})}
	srv.txnIdle.Store(int64(defaultTxnIdle))
	if cfg := s.Rewind().TM().Config(); cfg.GroupCommit {
		srv.window = cfg.GroupCommitWindow
	}
	return srv
}

// KV returns the underlying store.
func (s *Server) KV() *kv.Store { return s.kv }

// trackFlight registers a connection's flight-recorder ring so Flights
// can enumerate live connections' recent operations.
func (s *Server) trackFlight(c net.Conn, fr *obs.Flight) {
	s.mu.Lock()
	if s.flights == nil {
		s.flights = map[net.Conn]*obs.Flight{}
	}
	s.flights[c] = fr
	s.mu.Unlock()
}

func (s *Server) untrackFlight(c net.Conn) {
	s.mu.Lock()
	delete(s.flights, c)
	s.mu.Unlock()
}

// Flights returns the live connections' flight recorders (nil entries
// never appear; empty when observability is off or no connection is
// open). The rings themselves are safe to Snapshot concurrently.
func (s *Server) Flights() []*obs.Flight {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*obs.Flight, 0, len(s.flights))
	for _, fr := range s.flights {
		out = append(out, fr)
	}
	return out
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close, one goroutine per
// connection.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.startSweeper()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		go s.handleConn(c)
	}
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every live connection, and waits for the
// in-flight handlers to drain, so the caller may safely tear down the kv
// store (and its NVM mapping) afterwards. The kv store itself is left
// open — the daemon owns its shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.sweepHalt.Do(func() { close(s.sweepStop) })
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.handlers.Wait()
	return err
}

func (s *Server) handleConn(c net.Conn) {
	cs := newConnState()
	defer func() {
		c.Close()
		// Disconnect rollback: reap every transaction this connection
		// still holds before the handler goroutine exits.
		s.dropConn(cs)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.handlers.Done()
	}()
	br := newReader(c)
	bw := newWriter(c)
	var fr *obs.Flight
	if s.obs != nil {
		fr = obs.NewFlight(s.obs.FlightSize())
		s.trackFlight(c, fr)
		defer s.untrackFlight(c)
	}
	// The pipeline: every frame already in the read buffer is executed
	// and PUBLISHED before anything waits for durability, so one
	// connection's burst of mutations lands in the log back to back and the
	// first wait's flush covers them all — the fan-in a group-commit round
	// needs, supplied by a single socket. out holds the executed frames'
	// responses in arrival order and pend their requests; nothing in out
	// reaches the socket until every request before it has been released,
	// which for a mutation means its ticket is durable. Both are bounded
	// (maxBurst requests, about bufSize bytes) and reused, burst after burst.
	// When the buffer runs dry the burst may still go on: g waits for the
	// next frame while the cohort the client sent last time is incomplete
	// (gather.go).
	var out []byte
	pend := make([]request, 0, maxBurst)
	var g gather
	for {
		// This read can fail only while pend is empty: the loop comes back
		// here without releasing only when the next frame is wholly
		// buffered, and reading a wholly buffered frame cannot fail. A read
		// error therefore never strands an executed request's reply.
		id, op, body, err := wire.ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.errored.Add(1)
			}
			return
		}
		s.requests.Add(1)
		rq := s.startRequest(op)
		out = s.applyConn(cs, out, id, op, body, &rq)
		g.executed(s, rq.ticket)
		if rq.span != nil {
			rq.executed = time.Now() // its reply queues from here if a burst forms
		}
		more := frameBuffered(br) ||
			len(pend)+1 < maxBurst && len(out) < bufSize && g.wait(s, c, br)
		if !more && len(pend) == 0 {
			rq.executed = time.Time{} // a lone request: nothing to queue behind
		}
		pend = append(pend, rq)
		if more && len(pend) < maxBurst && len(out) < bufSize {
			continue
		}
		g.release(s, c, pend, fr)
		pend = pend[:0]
		if _, err := bw.Write(out); err != nil {
			return
		}
		out = out[:0]
		// Flush before blocking on the next read unless a COMPLETE next
		// frame is already buffered: a burst longer than maxBurst is
		// answered with writev-sized flushes, while a partial frame (a
		// client that writes in pieces) never holds an ack hostage.
		if !more {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// maxBurst bounds how many executed requests one connection may hold
// unreleased: the depth of pipelining that can share one durability wait.
const maxBurst = 64

// frameBuffered reports whether br already holds one whole frame.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	// Mirror ReadFrame's bounds exactly: a header with n < 5 is a corrupt
	// frame ReadFrame will reject, not a complete buffered one — treating
	// it as buffered would skip the flush and strand the previous acks.
	return n >= 5 && n <= wire.MaxFrame && br.Buffered() >= 4+int(n)
}

// apply decodes one request, applies it to the store, and appends the
// response frame to dst. It is the whole server data path minus the
// sockets, which is what the deterministic crash tests drive directly;
// transaction ops run against a shared fallback connection state.
func (s *Server) apply(dst []byte, id uint32, op byte, body []byte) []byte {
	rq := s.startRequest(op)
	dst = s.applyConn(s.defaultConnState(), dst, id, op, body, &rq)
	s.release(&rq, nil)
	return dst
}

// opKind maps a wire op byte to its observability class.
func opKind(op byte) obs.OpKind {
	switch op {
	case wire.OpGet:
		return obs.OpGet
	case wire.OpPut:
		return obs.OpPut
	case wire.OpDel:
		return obs.OpDel
	case wire.OpScan:
		return obs.OpScan
	case wire.OpBatch:
		return obs.OpBatch
	case wire.OpStats:
		return obs.OpStats
	case wire.OpBegin:
		return obs.OpBegin
	case wire.OpCommit:
		return obs.OpCommit
	case wire.OpRollback:
		return obs.OpRollback
	case wire.OpTxnGet:
		return obs.OpTxnGet
	case wire.OpTxnPut:
		return obs.OpTxnPut
	case wire.OpTxnDel:
		return obs.OpTxnDel
	case wire.OpCas:
		return obs.OpCas
	case wire.OpGetAt:
		return obs.OpGetAt
	}
	return obs.OpOther
}

// setKey stamps the decoded key onto the span (nil-safe).
func setKey(span *obs.Span, key uint64) {
	if span != nil {
		span.Key = key
	}
}

// request is one frame's passage through the connection pipeline: execute
// → publish (ticket) → durable → reply. The span brackets all of it — frame
// in to reply released — so the op latency histograms, the flight ring and
// the slow-op log keep meaning "durable ack out".
type request struct {
	span     *obs.Span     // nil when observability is off
	sim0     int64         // device clock at frame in
	ticket   rewind.Ticket // what the reply waits for; zero: nothing
	executed time.Time     // end of execution, for a request inside a burst
}

// startRequest opens the span for one incoming frame.
func (s *Server) startRequest(op byte) request {
	rq := request{span: s.obs.StartSpan(opKind(op), 0)}
	if rq.span != nil {
		rq.sim0 = s.kv.Rewind().SimNS()
	}
	return rq
}

// release waits until rq's mutation is durable — the one rule the reply
// path may not bend: no reply for a mutation is handed to the socket
// before its ticket is durable — and closes the span into fr. The wait's
// gather and flush+fence phases land on the request that waited; a
// request released as part of a burst is first charged its time in the
// queue.
func (s *Server) release(rq *request, fr *obs.Flight) {
	if !rq.executed.IsZero() {
		// Reads included: a GET behind outstanding writes answers in order,
		// and the time that costs it is on its span, not hidden.
		s.obs.PhaseNs(rq.span, obs.PhaseReplyQueue, time.Since(rq.executed).Nanoseconds(), 0)
	}
	s.kv.WaitDurable(rq.ticket, rq.span)
	if rq.span != nil {
		s.obs.FinishSpan(rq.span, s.kv.Rewind().SimNS()-rq.sim0, fr)
	}
}

// applyConn executes one frame: decode, apply against the store
// (transaction ops resolve their handles through cs), append the response
// frame to dst. An overwrite of an existing key is only PUBLISHED when
// applyConn returns — visible, ordered, not yet durable — and rq.ticket
// says what the response must wait for before it may be released; every
// other op leaves the zero ticket or one that is durable already (reads
// have nothing to wait for, and kv has waited for a mutation that changes
// a stripe's record count or commits through its exclusive multi-stripe
// path: an insert, a delete, a BATCH, an interactive COMMIT). Mutating ops
// thread rq.span into the commit pipeline.
func (s *Server) applyConn(cs *connState, dst []byte, id uint32, op byte, body []byte, rq *request) []byte {
	span := rq.span
	r := &wire.Reader{B: body}
	fail := func(err error) []byte {
		s.errored.Add(1)
		return wire.AppendFrame(dst, id, wire.StatusErr, []byte(err.Error()))
	}
	switch op {
	case wire.OpGet:
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		v, ok := s.kv.Get(key)
		if !ok {
			return wire.AppendFrame(dst, id, wire.StatusNotFound, nil)
		}
		if len(v) > wire.MaxBody {
			// The value cannot ride one frame (MaxValue is unbounded but
			// MaxFrame is not); an unchecked append here would build a frame
			// the client's ReadFrame rejects, poisoning the connection and
			// every pipelined request on it. Tell the client the total so it
			// can switch to GETAT chunks.
			return wire.AppendFrame(dst, id, wire.StatusTooLarge, wire.AppendU64(nil, uint64(len(v))))
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, v)

	case wire.OpPut:
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		v, err := r.Bytes()
		if err != nil {
			return fail(err)
		}
		if rq.ticket, err = s.kv.PublishPut(key, v, span); err != nil {
			return fail(err)
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, nil)

	case wire.OpDel:
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		var found bool
		if found, rq.ticket, err = s.kv.PublishDelete(key, span); err != nil {
			return fail(err)
		}
		b := byte(0)
		if found {
			b = 1
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, []byte{b})

	case wire.OpScan:
		from, err := r.U64()
		if err != nil {
			return fail(err)
		}
		to, err := r.U64()
		if err != nil {
			return fail(err)
		}
		limit, err := r.U32()
		if err != nil {
			return fail(err)
		}
		if page := uint32(s.scanPage()); limit == 0 || limit > page {
			limit = page
		}
		setKey(span, from)
		pairs := s.kv.Scan(from, to, int(limit))
		// Byte-budget the page: scanPage's count bound assumes values no
		// larger than MaxValue fit a frame, which stopped holding when
		// MaxValue became unbounded. Encode pairs until the next one would
		// overflow the frame; the client resumes from the last key returned.
		body := wire.AppendU32(nil, 0)
		count := 0
		for _, p := range pairs {
			if len(body)+12+len(p.Value) > wire.MaxBody {
				if count == 0 {
					// The very first pair alone overflows: report its key and
					// total so the client chunk-fetches it via GETAT and
					// resumes the scan past it.
					tl := wire.AppendU64(nil, p.Key)
					tl = wire.AppendU64(tl, uint64(len(p.Value)))
					return wire.AppendFrame(dst, id, wire.StatusTooLarge, tl)
				}
				break
			}
			body = wire.AppendU64(body, p.Key)
			body = wire.AppendBytes(body, p.Value)
			count++
		}
		binary.LittleEndian.PutUint32(body[:4], uint32(count))
		return wire.AppendFrame(dst, id, wire.StatusOK, body)

	case wire.OpBatch:
		ops, err := decodeBatch(r)
		if err != nil {
			return fail(err)
		}
		if rq.ticket, err = s.kv.PublishBatch(ops, span); err != nil {
			return fail(err)
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, nil)

	case wire.OpStats:
		doc, err := json.Marshal(s.Stats())
		if err != nil {
			return fail(err)
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, doc)

	case wire.OpBegin:
		tid, err := s.beginTxn(cs)
		if err != nil {
			return fail(err)
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, wire.AppendU64(nil, tid))

	case wire.OpCommit, wire.OpRollback:
		tid, err := r.U64()
		if err != nil {
			return fail(err)
		}
		e, err := s.takeTxn(cs, tid)
		if err != nil {
			return fail(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.gone {
			return fail(fmt.Errorf("server: txn %d expired", tid))
		}
		e.gone = true
		if op == wire.OpRollback {
			if err := e.txn.Rollback(); err != nil {
				return fail(err)
			}
			return wire.AppendFrame(dst, id, wire.StatusOK, nil)
		}
		switch err := e.txn.CommitSpan(span); {
		case errors.Is(err, kv.ErrTxnConflict):
			return wire.AppendFrame(dst, id, wire.StatusConflict, []byte(err.Error()))
		case err != nil:
			return fail(err)
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, nil)

	case wire.OpTxnGet:
		tid, err := r.U64()
		if err != nil {
			return fail(err)
		}
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		mode, err := r.Byte()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		e, err := s.lookupTxn(cs, tid)
		if err != nil {
			return fail(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.gone {
			return fail(fmt.Errorf("server: txn %d expired", tid))
		}
		var v []byte
		var ok bool
		if mode == wire.TxnReadForUpdate {
			v, ok, err = e.txn.GetForUpdate(key)
		} else {
			v, ok, err = e.txn.Get(key)
		}
		if err != nil {
			return fail(err)
		}
		if !ok {
			return wire.AppendFrame(dst, id, wire.StatusNotFound, nil)
		}
		if len(v) > wire.MaxBody {
			// Only committed state can be this large — TPUT requests are
			// frame-capped — so GETAT chunks observe the same bytes.
			return wire.AppendFrame(dst, id, wire.StatusTooLarge, wire.AppendU64(nil, uint64(len(v))))
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, v)

	case wire.OpTxnPut:
		tid, err := r.U64()
		if err != nil {
			return fail(err)
		}
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		v, err := r.Bytes()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		e, err := s.lookupTxn(cs, tid)
		if err != nil {
			return fail(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.gone {
			return fail(fmt.Errorf("server: txn %d expired", tid))
		}
		if err := e.txn.Put(key, v); err != nil {
			return fail(err)
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, nil)

	case wire.OpTxnDel:
		tid, err := r.U64()
		if err != nil {
			return fail(err)
		}
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		e, err := s.lookupTxn(cs, tid)
		if err != nil {
			return fail(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.gone {
			return fail(fmt.Errorf("server: txn %d expired", tid))
		}
		found, err := e.txn.Delete(key)
		if err != nil {
			return fail(err)
		}
		b := byte(0)
		if found {
			b = 1
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, []byte{b})

	case wire.OpCas:
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		flags, err := r.Byte()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		var expect, value []byte
		if flags&wire.CasExpectPresent != 0 {
			if expect, err = r.Bytes(); err != nil {
				return fail(err)
			}
			if expect == nil {
				expect = []byte{}
			}
		}
		if flags&wire.CasStoreValue != 0 {
			if value, err = r.Bytes(); err != nil {
				return fail(err)
			}
			if value == nil {
				value = []byte{}
			}
		}
		var swapped bool
		if swapped, rq.ticket, err = s.kv.PublishCAS(key, expect, value, span); err != nil {
			return fail(err)
		}
		b := byte(0)
		if swapped {
			b = 1
		}
		return wire.AppendFrame(dst, id, wire.StatusOK, []byte{b})

	case wire.OpGetAt:
		key, err := r.U64()
		if err != nil {
			return fail(err)
		}
		off, err := r.U64()
		if err != nil {
			return fail(err)
		}
		setKey(span, key)
		chunk, total, token, ok := s.kv.GetAt(key, off, wire.MaxBody-16)
		if !ok {
			return wire.AppendFrame(dst, id, wire.StatusNotFound, nil)
		}
		body := wire.AppendU64(nil, total)
		body = wire.AppendU64(body, token)
		body = append(body, chunk...)
		return wire.AppendFrame(dst, id, wire.StatusOK, body)
	}
	return fail(fmt.Errorf("server: unknown op %d", op))
}

// decodeBatch parses a BATCH body into kv ops.
func decodeBatch(r *wire.Reader) ([]kv.Op, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	// Every op takes at least 9 encoded bytes; a count beyond that is a
	// corrupt (or hostile) frame, not a reason to pre-allocate.
	if int(n) > len(r.B)/9 {
		return nil, fmt.Errorf("server: batch count %d exceeds frame body", n)
	}
	ops := make([]kv.Op, 0, n)
	for i := uint32(0); i < n; i++ {
		kind, err := r.Byte()
		if err != nil {
			return nil, err
		}
		key, err := r.U64()
		if err != nil {
			return nil, err
		}
		op := kv.Op{Key: key, Delete: kind == 1}
		if !op.Delete {
			if op.Value, err = r.Bytes(); err != nil {
				return nil, err
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// Stats is the STATS response document.
type Stats struct {
	// Accepted counts connections accepted; Requests counts frames
	// served; Errored counts error responses and decode failures.
	Accepted, Requests, Errored int64
	// TxnsActive is the number of interactive transaction handles
	// currently open across all connections; TxnsExpired counts handles
	// the idle sweeper rolled back.
	TxnsActive, TxnsExpired int64
	// KV is the store's own activity snapshot.
	KV kv.Stats
	// GroupCommitRounds / GroupedCommits aggregate the log shards'
	// group-commit counters: rounds is shared flushes issued, grouped is
	// commits that split a fence with at least one other transaction.
	GroupCommitRounds, GroupedCommits, Commits int64
	// CommitMode is the store's logging protocol ("UR" for undo/redo,
	// "RO" for redo-only); LogBytes is the cumulative record payload
	// appended across all log shards — the volume figure the two modes
	// are compared on.
	CommitMode string
	LogBytes   int64
	// Checkpoints counts completed checkpoints; LastCheckpointPauseNs is
	// the longest single freeze (wall clock) of the most recent one — the
	// worst stall a commit could have seen — and LastCheckpointChunks how
	// many budgeted freezes it was spread over.
	Checkpoints           int64
	LastCheckpointPauseNs int64
	LastCheckpointChunks  int
	// Device counters: the simulated NVM bill the workload has run up —
	// fences and flushes are the commit-durability unit, line writes the
	// paper's NVM-write unit, SimNs the virtual clock. Added in the
	// flight-recorder revision; older clients ignore them and older
	// servers leave them zero, both by JSON's unknown/missing-field rules.
	DeviceFences, DeviceFlushes, DeviceLineWrites, DeviceSimNs int64
	// Latency and CommitPhases summarize the observability histograms
	// (wall and simulated-device quantiles per op kind and per commit
	// phase); SlowOps counts requests past the slow-op threshold. All
	// empty/zero when the server runs without observability.
	Latency      map[string]obs.OpLatency `json:",omitempty"`
	CommitPhases map[string]obs.OpLatency `json:",omitempty"`
	SlowOps      int64
	// Arena reports capacity state: current and maximum arena size, growth
	// events, heap live vs high-water bytes, and the backing file's actual
	// on-disk footprint after hole punching. Zero on older servers.
	Arena rewind.ArenaInfo
}

// Stats snapshots server activity.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:    s.accepted.Load(),
		Requests:    s.requests.Load(),
		Errored:     s.errored.Load(),
		TxnsExpired: s.txnsExpired.Load(),
		KV:          s.kv.Stats(),
	}
	s.txnMu.Lock()
	st.TxnsActive = int64(len(s.txns))
	s.txnMu.Unlock()
	tms := s.kv.Rewind().TMStats()
	st.Checkpoints = tms.Checkpoints
	st.CommitMode = s.kv.Rewind().Options().CommitMode.String()
	st.LogBytes = tms.LogBytes
	for _, sh := range tms.Shards {
		st.GroupCommitRounds += sh.GroupCommitRounds
		st.GroupedCommits += sh.GroupedCommits
		st.Commits += sh.Commits
	}
	ck := s.kv.Rewind().LastCheckpoint()
	st.LastCheckpointPauseNs = ck.MaxPauseNs
	st.LastCheckpointChunks = ck.Chunks
	dev := s.kv.Rewind().Stats()
	st.DeviceFences = dev.Fences
	st.DeviceFlushes = dev.Flushes
	st.DeviceLineWrites = dev.LineWrites
	st.DeviceSimNs = dev.SimulatedNS
	st.Latency = s.obs.OpLatencies()
	st.CommitPhases = s.obs.PhaseLatencies()
	st.SlowOps = s.obs.SlowCount()
	st.Arena = s.kv.Rewind().ArenaInfo()
	return st
}

// RegisterMetrics publishes the server's connection and request counters
// on r under the rewind_server_* namespace.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	r.Group(func(emit func(name, help string, v float64)) {
		emit("rewind_server_accepted_total", "Connections accepted.", float64(s.accepted.Load()))
		emit("rewind_server_requests_total", "Request frames served.", float64(s.requests.Load()))
		emit("rewind_server_errored_total", "Error responses and decode failures.", float64(s.errored.Load()))
		s.mu.Lock()
		open := len(s.conns)
		s.mu.Unlock()
		emit("rewind_server_open_connections", "Connections currently open.", float64(open))
		s.txnMu.Lock()
		active := len(s.txns)
		s.txnMu.Unlock()
		emit("rewind_server_txns_active", "Interactive transaction handles currently open.", float64(active))
		emit("rewind_server_txns_expired_total", "Transactions rolled back by the idle sweeper.", float64(s.txnsExpired.Load()))
	})
}
