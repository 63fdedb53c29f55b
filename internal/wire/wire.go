// Package wire defines rewindd's length-prefixed binary protocol, shared
// by the server and client packages.
//
// Every frame — request or response — has the same envelope:
//
//	u32 length   // of everything after this field
//	u32 id       // request id, echoed in the response (pipelining key)
//	u8  op/status
//	...body
//
// All integers are little-endian. A connection carries any number of
// pipelined requests; the server answers each request exactly once, in
// arrival order, so clients may match responses positionally or by id.
//
// Request bodies:
//
//	GET      key u64
//	PUT      key u64, vlen u32, value bytes
//	DEL      key u64
//	SCAN     from u64, to u64, limit u32
//	BATCH    count u32, then per op: kind u8 (0 put, 1 delete), key u64,
//	         and for puts vlen u32 + value bytes — applied all-or-none
//	STATS    (empty)
//	BEGIN    (empty) — opens a transaction pinned to this connection
//	COMMIT   txn u64
//	ROLLBACK txn u64
//	TGET     txn u64, key u64, mode u8 (0 plain, 1 for-update: the read is
//	         revalidated at COMMIT and a change aborts with CONFLICT)
//	TPUT     txn u64, key u64, vlen u32, value bytes (buffered until COMMIT)
//	TDEL     txn u64, key u64 (buffered until COMMIT)
//	CAS      key u64, flags u8, [expect: vlen u32 + bytes when flags&1],
//	         [value: vlen u32 + bytes when flags&2]. flags&1 means "expect
//	         the given value present" (else: expect absent — put-if-absent);
//	         flags&2 means "store the given value" (else: delete on match).
//	GETAT    key u64, off u64 — one chunk of a value too large for a frame
//
// Response bodies:
//
//	OK for GET: value bytes (the whole body)
//	OK for DEL / TDEL: found u8
//	OK for SCAN: count u32, then per pair: key u64, vlen u32, value bytes
//	OK for STATS: a JSON document
//	OK for BEGIN: txn u64 (the server-assigned handle id)
//	OK for CAS: swapped u8
//	OK for GETAT: total u64, token u64, chunk bytes (the rest of the body);
//	  chunks carrying the same token are one consistent value image
//	OK otherwise: empty
//	NOTFOUND, ERR: optional error text
//	TOOLARGE for GET/TGET: total u64 — the value exceeds MaxBody; fetch it
//	  with GETAT chunks. For SCAN: key u64, total u64 — the next pair alone
//	  exceeds MaxBody; chunk-fetch that key and resume the scan past it.
//	CONFLICT for COMMIT: a for-update read changed; the transaction rolled
//	  back — rebuild it and retry.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Ops.
const (
	OpGet byte = iota + 1
	OpPut
	OpDel
	OpScan
	OpBatch
	OpStats
	OpBegin
	OpCommit
	OpRollback
	OpTxnGet
	OpTxnPut
	OpTxnDel
	OpCas
	OpGetAt
)

// CAS request flags.
const (
	CasExpectPresent byte = 1 << 0 // an expect field follows; else expect absent
	CasStoreValue    byte = 1 << 1 // a value field follows; else delete on match
)

// TGET read modes.
const (
	TxnReadPlain     byte = 0
	TxnReadForUpdate byte = 1
)

// Response statuses.
const (
	StatusOK byte = iota
	StatusNotFound
	StatusErr
	StatusTooLarge
	StatusConflict
)

// MaxFrame bounds a single frame (1 MiB): large enough for any scan page
// the server returns, small enough that a corrupt length prefix cannot
// make a peer allocate unboundedly.
const MaxFrame = 1 << 20

// MaxBody is the largest body a frame can carry (MaxFrame minus the id and
// op/status bytes counted by the length prefix). Values longer than this
// cannot ride a GET/SCAN response and are fetched in GETAT chunks.
const MaxBody = MaxFrame - 5

// Errors.
var (
	ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrame)
	ErrShortBody     = fmt.Errorf("wire: truncated frame body")
)

// AppendFrame appends a frame to dst and returns the extended slice.
func AppendFrame(dst []byte, id uint32, op byte, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(4+1+len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = append(dst, op)
	return append(dst, body...)
}

// BeginFrame appends a frame header whose length is left open, for a body
// encoded straight into dst after it; EndFrame(dst, start) closes the
// frame, where start was len(dst) before BeginFrame. The op/status byte is
// dst[start+8].
func BeginFrame(dst []byte, id uint32, op byte) []byte { return AppendFrame(dst, id, op, nil) }

// EndFrame fills in the length of the frame that starts at dst[start:] and
// runs to the end of dst.
func EndFrame(dst []byte, start int) {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
}

// ReadFrame reads one frame. The returned body aliases a fresh buffer.
func ReadFrame(r *bufio.Reader) (id uint32, op byte, body []byte, err error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto reads one frame into *buf, which the caller owns and passes
// again for the next frame: *buf is grown when the frame does not fit (at
// most to MaxFrame) and reused when it does, so a reader that keeps its
// buffer allocates nothing per frame. The returned body aliases *buf and is
// valid until *buf is next read into; bytes that must outlive it are the
// caller's to copy.
func ReadFrameInto(r *bufio.Reader, buf *[]byte) (id uint32, op byte, body []byte, err error) {
	// Peek, not a read into a local array: the header costs no allocation.
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 5 {
		return 0, 0, nil, fmt.Errorf("wire: frame length %d too small", n)
	}
	if n > MaxFrame {
		return 0, 0, nil, ErrFrameTooLarge
	}
	r.Discard(4)
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err = io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return binary.LittleEndian.Uint32(b[0:4]), b[4], b[5:], nil
}

// U64 / U32 body helpers.

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendBytes appends a u32 length prefix and the bytes.
func AppendBytes(dst, p []byte) []byte {
	dst = AppendU32(dst, uint32(len(p)))
	return append(dst, p...)
}

// Reader consumes a frame body field by field.
type Reader struct{ B []byte }

// U64 reads a u64 field.
func (r *Reader) U64() (uint64, error) {
	if len(r.B) < 8 {
		return 0, ErrShortBody
	}
	v := binary.LittleEndian.Uint64(r.B)
	r.B = r.B[8:]
	return v, nil
}

// U32 reads a u32 field.
func (r *Reader) U32() (uint32, error) {
	if len(r.B) < 4 {
		return 0, ErrShortBody
	}
	v := binary.LittleEndian.Uint32(r.B)
	r.B = r.B[4:]
	return v, nil
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if len(r.B) < 1 {
		return 0, ErrShortBody
	}
	v := r.B[0]
	r.B = r.B[1:]
	return v, nil
}

// Bytes reads a u32-length-prefixed byte field. A truncated field consumes
// nothing: the reader either yields the whole field or leaves its position
// unchanged.
func (r *Reader) Bytes() ([]byte, error) {
	if len(r.B) < 4 {
		return nil, ErrShortBody
	}
	n := binary.LittleEndian.Uint32(r.B)
	if uint64(len(r.B))-4 < uint64(n) {
		return nil, ErrShortBody
	}
	v := r.B[4 : 4+n]
	r.B = r.B[4+n:]
	return v, nil
}
