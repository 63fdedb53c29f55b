package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// rng is splitmix64: a few lines, so the op streams are bit-identical on
// every Go version and platform for one seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix64 scrambles zipfian ranks over the key indexes, so the hot keys are
// spread across stripes and leaves and not the first few loaded.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by the
// YCSB generator's method (Gray et al., "Quickly generating billion-record
// synthetic databases"); math/rand's Zipf needs an exponent above 1.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan             float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// index draws a key index: a zipfian rank scrambled over [0, n).
func (z *zipf) index(r *rng) int { return int(mix64(uint64(z.rank(r))) % uint64(z.n)) }

// keyOf maps a key index to its key. Multiplying by an odd constant is a
// bijection modulo 2^40, so distinct indexes give distinct keys, scattered
// over the stripes (key mod 8) and over the key order.
func keyOf(idx int) uint64 { return (uint64(idx)*2654435761)&(1<<40-1) + 1 }

// keyInverse undoes keyOf's multiplication: the inverse of an odd number
// modulo a power of two, by Newton's iteration (each step doubles the
// correct low bits).
var keyInverse = func() uint64 {
	const a = 2654435761
	x := uint64(a) // correct to 3 bits
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}()

// idxOf is keyOf's inverse.
func idxOf(key uint64) int { return int((key - 1) * keyInverse & (1<<40 - 1)) }

// minValueLen is key plus version: what makes an answer checkable.
const minValueLen = 16

// appendValue appends the value of (key index, version): key, version, then
// filler derived from both so a torn or misplaced value cannot pass.
func appendValue(dst []byte, idx int, ver uint32, n int) []byte {
	key := keyOf(idx)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ver))
	fill := byte(key) ^ byte(ver)
	for i := minValueLen; i < n; i++ {
		dst = append(dst, fill+byte(i))
	}
	return dst
}

type opKind uint8

const (
	opGet    opKind = iota
	opPut           // overwrite of a loaded key
	opScan          // the next scanLen pairs from a start key
	opInsert        // put of a key that was never stored
	opDelete        // delete of a live key
)

const scanLen = 10

// op is one request of a workload's stream. idx is a key index; the
// version a write stores is assigned by the model when it is issued.
type op struct {
	kind opKind
	idx  uint32
}

func (o op) isWrite() bool { return o.kind == opPut || o.kind == opInsert || o.kind == opDelete }

// workload is one traffic mix. Everything the daemon sees is made here
// from the seed; the daemon itself never learns the workload's name.
type workload struct {
	name string
	why  string
	// valueLen is the size of every value loaded and written.
	valueLen int
	// opsPerSecond turns -seconds into the fixed op count of the measured
	// phase: about what the seed commit sustains (closed loop) or exactly
	// the send rate (open loop, paced true).
	opsPerSecond int
	paced        bool
	// ckptEvery is the acked-write count between checkpoint triggers
	// during the measured phase (0: the phase writes nothing).
	ckptEvery int
	// gen makes ops off..off+n of the measured phase's stream over keys
	// loaded keys.
	gen func(r *rng, off, n, keys int) []op
	// churn says the between-crashes writes continue gen's stream; they
	// are uniform overwrites otherwise.
	churn bool
}

func uniformPuts(r *rng, _, n, keys int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{opPut, uint32(r.intn(keys))}
	}
	return ops
}

const zipfTheta = 0.99

var workloads = []workload{
	{
		name:         "get-zipf",
		why:          "read-only open loop at a fixed 20000 ops/s, zipfian GETs with 10% short SCANs: client, wire, server, kv read path and btree descent do all the work; a write-path change must leave it unchanged",
		valueLen:     100,
		opsPerSecond: 20000,
		paced:        true,
		gen: func(r *rng, _, n, keys int) []op {
			z := newZipf(keys, zipfTheta)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{opGet, uint32(z.index(r))}
				if i%10 == 9 {
					ops[i].kind = opScan
				}
			}
			return ops
		},
	},
	{
		name:         "put-small",
		why:          "uniform 16-byte overwrites, 2 connections x 16 deep: every op is a durable commit, so commit gather, log append and flush+fence dominate; a small value in a 520-byte slot shows write amplification",
		valueLen:     16,
		opsPerSecond: 1700,
		ckptEvery:    5000,
		gen:          uniformPuts,
	},
	{
		name:         "ycsb-a-paced",
		why:          "open loop at a fixed 1000 ops/s, well below capacity, zipfian 50% GET / 50% PUT: the latency a caller sees without saturation, with readers beside writers on the same leaves",
		valueLen:     100,
		opsPerSecond: 1000,
		paced:        true,
		ckptEvery:    2000,
		gen: func(r *rng, _, n, keys int) []op {
			z := newZipf(keys, zipfTheta)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = op{opGet, uint32(z.index(r))}
				if i%2 == 1 {
					ops[i].kind = opPut
				}
			}
			// Exactly half are PUTs, in a seeded order: a count that varied
			// with the seed would move the last checkpoint in and out of
			// the phase, and every per-op count with it.
			for i := n - 1; i > 0; i-- {
				j := r.intn(i + 1)
				ops[i].kind, ops[j].kind = ops[j].kind, ops[i].kind
			}
			return ops
		},
	},
	{
		name:         "churn-crash",
		why:          "alternating insert of a fresh key and delete of the oldest, 400-byte values: btree splits and merges, allocator reuse, checkpoints and recovery do the work; large values expose small-value tricks",
		valueLen:     400,
		opsPerSecond: 1400,
		ckptEvery:    5000,
		churn:        true,
		gen: func(_ *rng, off, n, keys int) []op {
			ops := make([]op, n)
			for i := range ops {
				if j := off + i; j%2 == 0 {
					ops[i] = op{opInsert, uint32(keys + j/2)}
				} else {
					ops[i] = op{opDelete, uint32(j / 2)}
				}
			}
			return ops
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// model is the parent's record of what the daemon must hold: per key index
// the last acknowledged version (0: never stored) and whether it is live.
// pend is the version of a write in flight, which a concurrent read may or
// may not see. Writes to one key are issued one at a time (the driver
// waits), so versions reach the daemon in order. Callers hold the driver's
// lock.
type model struct {
	ver  []uint32
	pend []uint32
	live []bool
	n    int // live keys
}

func newModel(capacity int) *model {
	return &model{
		ver:  make([]uint32, capacity),
		pend: make([]uint32, capacity),
		live: make([]bool, capacity),
	}
}

// issue reserves the next version of idx for a write now leaving.
func (m *model) issue(idx uint32) uint32 {
	m.pend[idx] = m.ver[idx] + 1
	return m.pend[idx]
}

// ack records that the write issued on idx was acknowledged.
func (m *model) ack(idx uint32, deleted bool) {
	m.ver[idx] = m.pend[idx]
	m.pend[idx] = 0
	if m.live[idx] == deleted {
		if deleted {
			m.n--
		} else {
			m.n++
		}
	}
	m.live[idx] = !deleted
}

// busy reports whether a write to idx is in flight.
func (m *model) busy(idx uint32) bool { return m.pend[idx] != 0 }

// newest is the highest version a read issued now may return.
func (m *model) newest(idx uint32) uint32 {
	if m.pend[idx] != 0 {
		return m.pend[idx]
	}
	return m.ver[idx]
}

// userBytes is the live data as a user counts it: key plus value.
func (m *model) userBytes(valueLen int) int64 { return int64(m.n) * int64(8+valueLen) }

// sortedKeys returns the live keys in key order, for checking scans.
func (m *model) sortedKeys() []uint64 {
	keys := make([]uint64, 0, m.n)
	for idx, l := range m.live {
		if l {
			keys = append(keys, keyOf(idx))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// decodeValue splits a stored value into key and version and reports
// whether it is exactly the value the benchmark writes for them.
func decodeValue(v []byte, idx int, valueLen int, scratch []byte) (ver uint32, ok bool) {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v) != keyOf(idx) {
		return 0, false
	}
	ver = uint32(binary.LittleEndian.Uint64(v[8:]))
	return ver, string(appendValue(scratch[:0], idx, ver, valueLen)) == string(v)
}
