package tpcc

import (
	"errors"
	"math/rand"

	"github.com/rewind-db/rewind/btree"
	"github.com/rewind-db/rewind/internal/core"
)

// errSimulatedAbort models the 1% of new-order transactions TPC-C requires
// to abort (an unused item number).
var errSimulatedAbort = errors.New("tpcc: simulated user abort")

// Terminal is one emulated TPC-C terminal. Each terminal serves one
// district (ten terminals, ten districts), which is also what gives the
// optimized layout its lock striping.
type Terminal struct {
	db       *DB
	district int
	rng      *rand.Rand
	tm       *core.TM // nil for NonRecoverable

	// Executed and Aborted count completed transactions.
	Executed int
	Aborted  int
}

// Terminal returns terminal i (serving district i%10).
func (db *DB) Terminal(i int, seed int64) *Terminal {
	t := &Terminal{db: db, district: i % DistrictsPerWH, rng: rand.New(rand.NewSource(seed))}
	switch db.mode {
	case SingleLog:
		t.tm = db.s.TM()
	case DistributedLog:
		t.tm = db.tms[i%len(db.tms)]
	}
	return t
}

// orderTrees returns the order-table trees and the district key encoder
// for this terminal's district under the current layout.
func (db *DB) orderTrees(d int) (o, no, ol *btree.Tree, okey func(oid uint64) uint64, olkey func(oid, n uint64) uint64) {
	if db.layout == Optimized {
		return db.orders[d], db.newOrder[d], db.orderLine[d],
			orderKeyD,
			olKeyD
	}
	du := uint64(d)
	return db.orders[0], db.newOrder[0], db.orderLine[0],
		func(oid uint64) uint64 { return orderKeyC(1, du, oid) },
		func(oid, n uint64) uint64 { return olKeyC(1, du, oid, n) }
}

// lock acquires the user-level locks for a new-order in this district.
func (db *DB) lock(d int) func() {
	if db.layout == Optimized {
		db.distMu[d].Lock()
		return db.distMu[d].Unlock
	}
	db.globalMu.Lock()
	return db.globalMu.Unlock
}

// NewOrder executes one new-order transaction (§5.3: "the most
// write-intensive TPC-C transaction and the backbone of the entire
// workload"). It reports whether the transaction committed.
func (t *Terminal) NewOrder() (bool, error) {
	unlock := t.db.lock(t.district)
	defer unlock()

	abort := t.rng.Intn(100) < AbortPercent
	if t.tm == nil {
		// Non-recoverable: apply directly; aborts are simply skipped
		// (§5.3: "they are considered non-recoverable and ignored").
		if abort {
			t.Aborted++
			return false, nil
		}
		w := btree.NVMWriter{Mem: t.db.s.Mem(), A: t.db.s.Allocator()}
		if err := t.body(w); err != nil {
			return false, err
		}
		t.Executed++
		return true, nil
	}

	// The transaction is the tree Writer (every manager here allocates from
	// the store's one allocator): tree writes go straight to the log shard,
	// and multi-word WriteBytes calls — TPC-C row images — log one span
	// record each.
	x := t.tm.Begin()
	err := t.body(x)
	if err == nil && abort {
		err = errSimulatedAbort
	}
	if err != nil {
		if rbErr := x.Rollback(); rbErr != nil {
			return false, rbErr
		}
		t.Aborted++
		if errors.Is(err, errSimulatedAbort) {
			return false, nil
		}
		return false, err
	}
	if err := x.Commit(); err != nil {
		return false, err
	}
	t.Executed++
	return true, nil
}

// body performs the new-order reads and writes through w.
func (t *Terminal) body(w btree.Writer) error {
	db := t.db
	d := uint64(t.district)

	// Warehouse tax (read).
	if _, ok := db.warehouse.Lookup(1); !ok {
		return errors.New("tpcc: warehouse missing")
	}
	// District: read tax and next_o_id, advance next_o_id.
	dv, ok := db.district.Lookup(distKey(1, d))
	if !ok {
		return errors.New("tpcc: district missing")
	}
	oid := getU64(dv, 16)
	putU64(dv, 16, oid+1)
	if _, err := db.district.Insert(w, distKey(1, d), dv); err != nil {
		return err
	}
	// Customer discount (read).
	cid := uint64(t.rng.Intn(db.custs))
	if _, ok := db.customer.Lookup(custKey(1, d, cid)); !ok {
		return errors.New("tpcc: customer missing")
	}

	olCnt := uint64(t.rng.Intn(MaxOrderLines-MinOrderLines+1) + MinOrderLines)

	orders, newOrder, orderLine, okey, olkey := db.orderTrees(t.district)
	ov := make([]byte, orderValSize)
	putU64(ov, 0, cid)
	putU64(ov, 8, 20260610)
	putU64(ov, 16, olCnt)
	putU64(ov, 24, 1)
	if _, err := orders.Insert(w, okey(oid), ov); err != nil {
		return err
	}
	nv := make([]byte, nordValSize)
	putU64(nv, 0, 1)
	if _, err := newOrder.Insert(w, okey(oid), nv); err != nil {
		return err
	}

	for n := uint64(0); n < olCnt; n++ {
		iid := uint64(t.rng.Intn(db.items)) + 1
		iv, ok := db.item.Lookup(iid)
		if !ok {
			return errors.New("tpcc: item missing")
		}
		price := getU64(iv, 0)
		// Stock update (shared across districts: short stock lock under
		// the optimized layout).
		if db.layout == Optimized {
			db.stockMu.Lock()
		}
		sv, ok := db.stock.Lookup(stockKey(1, iid))
		if !ok {
			if db.layout == Optimized {
				db.stockMu.Unlock()
			}
			return errors.New("tpcc: stock missing")
		}
		qty := getU64(sv, 0)
		if qty >= 10+5 {
			putU64(sv, 0, qty-5)
		} else {
			putU64(sv, 0, qty+91-5)
		}
		putU64(sv, 8, getU64(sv, 8)+5)   // ytd
		putU64(sv, 16, getU64(sv, 16)+1) // order_cnt
		_, err := db.stock.Insert(w, stockKey(1, iid), sv)
		if db.layout == Optimized {
			db.stockMu.Unlock()
		}
		if err != nil {
			return err
		}
		lv := make([]byte, olValSize)
		putU64(lv, 0, iid)
		putU64(lv, 8, 1)
		putU64(lv, 16, 5)
		putU64(lv, 24, 5*price)
		if _, err := orderLine.Insert(w, olkey(oid, n), lv); err != nil {
			return err
		}
	}
	return nil
}

// OrderCount returns the number of orders recorded for district d (for
// consistency checks).
func (db *DB) OrderCount(d int) int {
	o, _, _, _, _ := db.orderTrees(d)
	if db.layout == Optimized {
		return o.Len()
	}
	n := 0
	lo := orderKeyC(1, uint64(d), 0)
	hi := orderKeyC(1, uint64(d), 9_999_999)
	o.Scan(lo, hi, func(uint64, []byte) bool { n++; return true })
	return n
}

// NextOrderID returns the district's next order id (for consistency
// checks: orders == next_o_id - 1 when all transactions committed).
func (db *DB) NextOrderID(d int) uint64 {
	dv, _ := db.district.Lookup(distKey(1, uint64(d)))
	return getU64(dv, 16)
}
