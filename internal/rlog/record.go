// Package rlog implements REWIND's recoverable log structures (paper §3):
// the log record format, the Atomic Doubly-Linked List (ADLL, §3.2,
// Algorithm 1), and the optimized bucketed and batched log layouts (§3.3).
//
// Everything in this package lives in simulated NVM and is itself
// recoverable: a crash at any point leaves a state from which Open restores
// a structurally consistent log by redoing at most the one pending ADLL
// operation, exactly as the paper prescribes.
//
// A record lives in one of two places. Simple and Optimized logs, the
// AAVLT, and Append on any kind point at a pmem block per record (Alloc,
// AllocDeferred), freed when the record is cleared. A Batch log's
// AppendFields writes the record into its bucket's record area instead,
// packed against its neighbours, where it lives and dies with the bucket;
// which of the two a cell points at is decided by its address alone
// (DESIGN.md §12).
package rlog

import (
	"errors"
	"fmt"

	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/pmem"
)

// Type enumerates log record types (§4.1). The set follows ARIES plus the
// paper's additions: ROLLBACK marks the start of an abort (Algorithm 2) and
// DELETE carries deferred memory deallocation (§4.3).
type Type uint32

const (
	TypeInvalid Type = iota
	TypeUpdate
	TypeCLR
	TypeEnd
	TypeRollback
	TypeCheckpoint
	TypeDelete
)

func (t Type) String() string {
	switch t {
	case TypeUpdate:
		return "UPDATE"
	case TypeCLR:
		return "CLR"
	case TypeEnd:
		return "END"
	case TypeRollback:
		return "ROLLBACK"
	case TypeCheckpoint:
		return "CHECKPOINT"
	case TypeDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("Type(%d)", uint32(t))
	}
}

// Record flags (low byte of the header word).
const (
	// FlagUndoable marks UPDATE records whose effect can be undone
	// (Algorithm 2 consults it before generating a CLR).
	FlagUndoable = 1 << 0
	// FlagSpan marks a variable-length span record: one UPDATE (or CLR)
	// covering a contiguous run of words. The fixed header is followed by
	// the before-image words and then the after-image words; the word
	// count lives in the header's old-value slot. Span records amortize
	// the paper's per-record persistence cost (one flush + fence) over a
	// whole multi-word update, in the spirit of in-cache-line logging.
	FlagSpan = 1 << 1
	// FlagRedoSpan marks a redo-only span record: a contiguous run of
	// after-image words with no before-image at all, the shape redo-only
	// commit publishes (losers are discarded by recovery, never
	// compensated, so old values are dead weight). The header is cut to
	// its first four words — LSN/type/flags, txn, target address, word
	// count — and the payload starts right after it, roughly halving the
	// footprint of an equally wide undo/redo span.
	FlagRedoSpan = 1 << 2
	// FlagEnd folds an END into the record that carries it: the record is
	// also its transaction's END (Log.FoldEnd), so a commit whose last
	// record was still unflushed logs no END record of its own.
	FlagEnd = 1 << 3
)

// RecordSize is the fixed record footprint: 7 words. In a block of its own,
// together with the allocator's 8-byte header, a record occupies exactly
// one cache line, matching the paper's observation that a record carries
// the standard ARIES fields and its cost model of roughly one NVM line
// write per record. Span records extend past it with their payload
// (SpanSize).
const RecordSize = 56

// Record field offsets (bytes from the record address). The LSN, type and
// flags share the header word: 48 bits of LSN, 8 of type, 8 of flags.
// Redo-only spans (FlagRedoSpan) keep only the first four header words and
// place their after-image payload at redoRecPayload; the remaining offsets
// are meaningful for the other two shapes only.
const (
	recHeader      = 0  // LSN<<16 | Type<<8 | flags
	recTxn         = 8  // transaction ID
	recAddr        = 16 // address of the modified memory location
	recOld         = 24 // previous value (span + redo-span records: word count)
	recNew         = 32 // new value (span records: unused)
	recUndoNext    = 40 // LSN of the next record to undo (CLR / 2L chains)
	recPrevTxn     = 48 // address of this transaction's previous record (2L)
	recPayload     = 56 // span records: count old words, then count new words
	redoRecPayload = 32 // redo-span records: count new words
)

// SpanSize returns the footprint of a span record covering words words.
func SpanSize(words int) int { return RecordSize + 2*8*words }

// RedoSpanSize returns the footprint of a redo-only span record covering
// words words: the truncated 4-word header plus the after-image alone.
func RedoSpanSize(words int) int { return redoRecPayload + 8*words }

// Record is a view over a log record stored in NVM.
type Record struct {
	mem  *nvm.Memory
	Addr uint64
}

// View wraps an existing record address.
func View(mem *nvm.Memory, addr uint64) Record { return Record{mem, addr} }

// Fields is the material used to create a record. A non-empty OldSpan makes
// the record a span record (FlagSpan): OldSpan and NewSpan, which must have
// equal length, are its before- and after-images for the contiguous words
// starting at Addr, and Old/New are ignored. A non-empty NewSpan with an
// empty OldSpan makes it a redo-only span record (FlagRedoSpan) carrying
// the after-image alone; UndoNext and PrevTxn are ignored too, as the
// truncated header has no slots for them.
type Fields struct {
	LSN      uint64
	Txn      uint64
	Type     Type
	Flags    uint32
	Addr     uint64
	Old      uint64
	New      uint64
	UndoNext uint64
	PrevTxn  uint64
	OldSpan  []uint64
	NewSpan  []uint64
}

// Alloc creates a record "off-line" (§3.2): the fields are written with
// regular stores, then flushed and fenced so that the record is fully
// durable before any pointer to it is published. This is the fence the
// paper's §4.2 issues per record ("a memory fence is issued to ensure the
// record fields have reached the memory") — a span record's whole payload
// rides under this one flush + fence, which is the span-logging win.
func Alloc(a *pmem.Allocator, f Fields) Record {
	r := AllocDeferred(a, f)
	r.mem.FlushRange(r.Addr, r.Size())
	r.mem.Fence()
	return r
}

// AllocDeferred creates a record in a block of its own with cached stores
// only, leaving its persistence to a later group flush (§3.3). It is the
// one-block-per-record form of the Batch path, paired with Log.Append; the
// serving path builds its records inside the bucket with Log.AppendFields.
func AllocDeferred(a *pmem.Allocator, f Fields) Record {
	r := Record{a.Mem(), a.Alloc(f.size())}
	writeFields(r.mem, r.Addr, f)
	return r
}

// Header returns the header word of the record f describes: LSN, type and
// flags, the shape flag of a span included.
func (f *Fields) Header() uint64 {
	flags := uint64(f.Flags)
	switch {
	case len(f.OldSpan) > 0:
		flags |= FlagSpan
	case len(f.NewSpan) > 0:
		flags |= FlagRedoSpan
	}
	return f.LSN<<16 | uint64(f.Type)<<8 | flags&0xff
}

// Ref names a record by its address and header word: enough to chain to it
// (the two-layer back-pointers) and to fold an END into it (Log.FoldEnd)
// without reading it back.
type Ref struct{ Addr, Hdr uint64 }

// LSN returns the referenced record's LSN.
func (r Ref) LSN() uint64 { return r.Hdr >> 16 }

// size returns the footprint of the record f describes, rejecting span
// images of unequal length.
func (f *Fields) size() int {
	switch {
	case len(f.OldSpan) > 0:
		if len(f.NewSpan) != len(f.OldSpan) {
			panic(fmt.Sprintf("rlog: span images differ in length (%d old, %d new)", len(f.OldSpan), len(f.NewSpan)))
		}
		return SpanSize(len(f.OldSpan))
	case len(f.NewSpan) > 0:
		return RedoSpanSize(len(f.NewSpan))
	default:
		return RecordSize
	}
}

// writeFields encodes f into the f.size() bytes at addr with cached stores.
func writeFields(m *nvm.Memory, addr uint64, f Fields) {
	m.Store64(addr+recHeader, f.Header())
	if n := len(f.NewSpan); n > 0 && len(f.OldSpan) == 0 {
		// Redo-only span: truncated header, then the after-image. The
		// trailing header slots are NOT stored — their offsets are payload.
		m.Store64(addr+recTxn, f.Txn)
		m.Store64(addr+recAddr, f.Addr)
		m.Store64(addr+recOld, uint64(n))
		for i, v := range f.NewSpan {
			m.Store64(addr+redoRecPayload+uint64(i)*8, v)
		}
		return
	}
	if n := len(f.OldSpan); n > 0 {
		f.Old, f.New = uint64(n), 0
	}
	m.Store64(addr+recTxn, f.Txn)
	m.Store64(addr+recAddr, f.Addr)
	m.Store64(addr+recOld, f.Old)
	m.Store64(addr+recNew, f.New)
	m.Store64(addr+recUndoNext, f.UndoNext)
	m.Store64(addr+recPrevTxn, f.PrevTxn)
	for i, v := range f.OldSpan {
		m.Store64(addr+recPayload+uint64(i)*8, v)
	}
	for i, v := range f.NewSpan {
		m.Store64(addr+recPayload+uint64(len(f.OldSpan)+i)*8, v)
	}
}

// LSN returns the record ID.
func (r Record) LSN() uint64 { return r.mem.Load64(r.Addr+recHeader) >> 16 }

// Txn returns the transaction ID.
func (r Record) Txn() uint64 { return r.mem.Load64(r.Addr + recTxn) }

// Type returns the record type.
func (r Record) Type() Type { return Type(r.mem.Load64(r.Addr+recHeader) >> 8 & 0xff) }

// Flags returns the record flags.
func (r Record) Flags() uint32 { return uint32(r.mem.Load64(r.Addr+recHeader) & 0xff) }

// Ends reports whether the record ends its transaction: an END record, or
// one that carries its transaction's END folded in (FlagEnd).
func (r Record) Ends() bool {
	h := r.mem.Load64(r.Addr + recHeader)
	return Type(h>>8&0xff) == TypeEnd || h&FlagEnd != 0
}

// Ref returns the record's Ref.
func (r Record) Ref() Ref { return Ref{r.Addr, r.mem.Load64(r.Addr + recHeader)} }

// Undoable reports whether the record may be undone.
func (r Record) Undoable() bool { return r.Flags()&FlagUndoable != 0 }

// IsSpan reports whether the record is a variable-length span record
// carrying before- and after-images.
func (r Record) IsSpan() bool { return r.Flags()&FlagSpan != 0 }

// IsRedoSpan reports whether the record is a redo-only span record: a
// truncated header and an after-image payload, no before-image.
func (r Record) IsRedoSpan() bool { return r.Flags()&FlagRedoSpan != 0 }

// Target returns the address of the memory location the record describes
// (the first word, for span and redo-span records).
func (r Record) Target() uint64 { return r.mem.Load64(r.Addr + recAddr) }

// Words returns the number of contiguous words the record covers: 1 for
// plain records, the span length for span and redo-span records (both
// store their count in the old-value header slot).
func (r Record) Words() int {
	if r.Flags()&(FlagSpan|FlagRedoSpan) == 0 {
		return 1
	}
	return int(r.mem.Load64(r.Addr + recOld))
}

// Size returns the record's footprint in bytes, decoding all three record
// shapes (plain, span, redo-only span).
func (r Record) Size() int {
	switch {
	case r.IsRedoSpan():
		return RedoSpanSize(r.Words())
	case r.IsSpan():
		return SpanSize(r.Words())
	default:
		return RecordSize
	}
}

// TargetAt returns the address of the record's i-th covered word.
func (r Record) TargetAt(i int) uint64 { return r.Target() + uint64(i)*8 }

// Old returns the before-image value. For span and redo-span records the
// slot holds the word count; use OldAt to read a span's before-image.
func (r Record) Old() uint64 { return r.mem.Load64(r.Addr + recOld) }

// New returns the after-image value. For span records use NewAt; for
// redo-span records the offset is inside the payload, so New is
// meaningless — use NewAt there too.
func (r Record) New() uint64 { return r.mem.Load64(r.Addr + recNew) }

// ErrNoOldImage is returned by OldAt for redo-only records, which carry no
// before-image by construction.
var ErrNoOldImage = errors.New("rlog: redo-only record has no before-image")

// OldAt returns the before-image of the record's i-th covered word,
// decoding the plain and span shapes. Redo-only span records have no
// before-image; asking for one reports ErrNoOldImage rather than
// misreading payload words.
func (r Record) OldAt(i int) (uint64, error) {
	switch {
	case r.IsRedoSpan():
		return 0, ErrNoOldImage
	case r.IsSpan():
		return r.mem.Load64(r.Addr + recPayload + uint64(i)*8), nil
	default:
		return r.Old(), nil
	}
}

// NewAt returns the after-image of the record's i-th covered word,
// decoding all three record shapes.
func (r Record) NewAt(i int) uint64 {
	switch {
	case r.IsRedoSpan():
		return r.mem.Load64(r.Addr + redoRecPayload + uint64(i)*8)
	case r.IsSpan():
		return r.mem.Load64(r.Addr + recPayload + uint64(r.Words()+i)*8)
	default:
		return r.New()
	}
}

// UndoNext returns the LSN of the next record to undo (ARIES undoNextLSN).
// Redo-span records have no undoNext slot; the result is payload there.
func (r Record) UndoNext() uint64 { return r.mem.Load64(r.Addr + recUndoNext) }

// PrevTxn returns the address of the same transaction's previous record
// (the two-layer configuration's per-transaction back-chain). Redo-span
// records have no prevTxn slot; the result is payload there.
func (r Record) PrevTxn() uint64 { return r.mem.Load64(r.Addr + recPrevTxn) }

// String renders the record for diagnostics.
func (r Record) String() string {
	typ := r.Type().String()
	if r.Flags()&FlagEnd != 0 {
		typ += "+END"
	}
	switch {
	case r.IsRedoSpan():
		return fmt.Sprintf("[lsn=%d txn=%d %s addr=%#x redospan=%d]",
			r.LSN(), r.Txn(), typ, r.Target(), r.Words())
	case r.IsSpan():
		return fmt.Sprintf("[lsn=%d txn=%d %s addr=%#x span=%d undoNext=%d]",
			r.LSN(), r.Txn(), typ, r.Target(), r.Words(), r.UndoNext())
	default:
		return fmt.Sprintf("[lsn=%d txn=%d %s addr=%#x old=%d new=%d undoNext=%d]",
			r.LSN(), r.Txn(), typ, r.Target(), r.Old(), r.New(), r.UndoNext())
	}
}
