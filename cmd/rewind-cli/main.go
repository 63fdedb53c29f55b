// Command rewind-cli talks to a rewindd daemon.
//
// Usage:
//
//	rewind-cli [-addr host:port] get <key>
//	rewind-cli [-addr host:port] put <key> <value>
//	rewind-cli [-addr host:port] del <key>
//	rewind-cli [-addr host:port] scan <from> <to> [limit]
//	rewind-cli [-addr host:port] cas <key> <expect|-> <value|->
//	rewind-cli [-addr host:port] putnx <key> <value>
//	rewind-cli [-addr host:port] txn
//	rewind-cli [-addr host:port] stats [-raw] [-watch interval]
//	rewind-cli [-addr host:port] bench [-n ops] [-c conns]
//
// Keys are uint64s; values are arbitrary strings. bench floods the daemon
// with pipelined PUTs from -c concurrent connections and reports acked
// ops/sec — a quick way to watch group commit earn its keep (stats shows
// the commits each flush covered).
//
// cas atomically replaces <expect> with <value>; "-" for <expect> means
// "only if absent" and "-" for <value> means "delete on match". putnx is
// put-if-absent. txn opens an interactive transaction and reads commands
// from stdin, one per line:
//
//	get <key> | getu <key> | put <key> <value> | del <key>
//	commit | rollback
//
// getu is a for-update read: the transaction re-validates it at commit
// and fails with a conflict if another writer changed it. Buffered writes
// are invisible until commit; EOF without commit rolls back.
//
// stats renders the daemon's counters as a table: operation counts, the
// durability bill (fences per write, log bytes), fast-path hit rates, and
// — when the daemon records latency — per-op and per-commit-phase
// quantiles. -raw dumps the JSON document instead; -watch re-polls every
// interval and prints the deltas (ops/s, fences per write in the
// interval), like a vmstat for rewindd.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/rewind-db/rewind/client"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rewind-cli [-addr host:port] <get|put|del|scan|cas|putnx|txn|stats|bench> ...")
	os.Exit(2)
}

func parseKey(s string) uint64 {
	k, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rewind-cli: bad key %q: %v\n", s, err)
		os.Exit(2)
	}
	return k
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "daemon address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cl := client.Dial(*addr, client.Options{})
	defer cl.Close()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "rewind-cli: %v\n", err)
		os.Exit(1)
	}

	switch args[0] {
	case "get":
		if len(args) != 2 {
			usage()
		}
		v, err := cl.Get(parseKey(args[1]))
		if errors.Is(err, client.ErrNotFound) {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		if err != nil {
			die(err)
		}
		fmt.Printf("%s\n", v)

	case "put":
		if len(args) != 3 {
			usage()
		}
		if err := cl.Put(parseKey(args[1]), []byte(args[2])); err != nil {
			die(err)
		}
		fmt.Println("OK")

	case "del":
		if len(args) != 2 {
			usage()
		}
		found, err := cl.Delete(parseKey(args[1]))
		if err != nil {
			die(err)
		}
		if found {
			fmt.Println("deleted")
		} else {
			fmt.Println("(not found)")
		}

	case "scan":
		if len(args) < 3 || len(args) > 4 {
			usage()
		}
		limit := 100
		if len(args) == 4 {
			limit = int(parseKey(args[3]))
		}
		pairs, err := cl.Scan(parseKey(args[1]), parseKey(args[2]), limit)
		if err != nil {
			die(err)
		}
		for _, p := range pairs {
			fmt.Printf("%d\t%s\n", p.Key, p.Value)
		}
		fmt.Fprintf(os.Stderr, "(%d keys)\n", len(pairs))

	case "cas":
		if len(args) != 4 {
			usage()
		}
		var expect, value []byte
		if args[2] != "-" {
			expect = []byte(args[2])
		}
		if args[3] != "-" {
			value = []byte(args[3])
		}
		ok, err := cl.CompareAndSwap(parseKey(args[1]), expect, value)
		if err != nil {
			die(err)
		}
		if ok {
			fmt.Println("swapped")
		} else {
			fmt.Println("(no match)")
			os.Exit(1)
		}

	case "putnx":
		if len(args) != 3 {
			usage()
		}
		ok, err := cl.PutIfAbsent(parseKey(args[1]), []byte(args[2]))
		if err != nil {
			die(err)
		}
		if ok {
			fmt.Println("OK")
		} else {
			fmt.Println("(exists)")
			os.Exit(1)
		}

	case "txn":
		runTxn(cl, die)

	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		raw := fs.Bool("raw", false, "print the raw STATS JSON document")
		watch := fs.Duration("watch", 0, "re-poll every interval and print deltas (0 = one snapshot)")
		fs.Parse(args[1:])
		if *raw {
			doc, err := cl.Stats()
			if err != nil {
				die(err)
			}
			fmt.Printf("%s\n", doc)
			break
		}
		if *watch > 0 {
			watchStats(cl, *watch, die)
			break
		}
		st, err := cl.ServerStats()
		if err != nil {
			die(err)
		}
		printStats(st)

	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		n := fs.Int("n", 10000, "total PUTs")
		c := fs.Int("c", 8, "concurrent connections")
		fs.Parse(args[1:])
		bench(*addr, *n, *c, die)

	default:
		usage()
	}
}

// runTxn reads transaction commands from stdin and drives one interactive
// transaction. EOF without an explicit commit rolls back (as would a
// dropped connection).
func runTxn(cl *client.Client, die func(error)) {
	tx, err := cl.Begin()
	if err != nil {
		die(err)
	}
	defer tx.Rollback()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		bad := func() {
			fmt.Fprintf(os.Stderr, "rewind-cli: txn: bad command %q\n", sc.Text())
		}
		switch fields[0] {
		case "get", "getu":
			if len(fields) != 2 {
				bad()
				continue
			}
			var v []byte
			if fields[0] == "get" {
				v, err = tx.Get(parseKey(fields[1]))
			} else {
				v, err = tx.GetForUpdate(parseKey(fields[1]))
			}
			if errors.Is(err, client.ErrNotFound) {
				fmt.Println("(not found)")
				continue
			}
			if err != nil {
				die(err)
			}
			fmt.Printf("%s\n", v)
		case "put":
			if len(fields) != 3 {
				bad()
				continue
			}
			if err := tx.Put(parseKey(fields[1]), []byte(fields[2])); err != nil {
				die(err)
			}
			fmt.Println("buffered")
		case "del":
			if len(fields) != 2 {
				bad()
				continue
			}
			found, err := tx.Delete(parseKey(fields[1]))
			if err != nil {
				die(err)
			}
			if found {
				fmt.Println("buffered delete")
			} else {
				fmt.Println("(not found)")
			}
		case "commit":
			if err := tx.Commit(); errors.Is(err, client.ErrConflict) {
				fmt.Println("CONFLICT (rolled back)")
				os.Exit(1)
			} else if err != nil {
				die(err)
			}
			fmt.Println("committed")
			return
		case "rollback":
			if err := tx.Rollback(); err != nil {
				die(err)
			}
			fmt.Println("rolled back")
			return
		default:
			bad()
		}
	}
	if err := sc.Err(); err != nil {
		die(err)
	}
	fmt.Println("(EOF: rolled back)")
}

// bench floods the daemon with PUTs over c connections and prints acked
// throughput.
func bench(addr string, n, c int, die func(error)) {
	var wg sync.WaitGroup
	start := time.Now()
	errs := make(chan error, c)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := client.Dial(addr, client.Options{Conns: 1})
			defer cl.Close()
			val := []byte(fmt.Sprintf("bench-%d", w))
			for i := 0; i < n/c; i++ {
				key := uint64(w)<<32 | uint64(i)
				if err := cl.Put(key, val); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		die(err)
	default:
	}
	el := time.Since(start)
	acked := n / c * c
	fmt.Printf("%d acked PUTs over %d conns in %v: %.0f ops/sec\n",
		acked, c, el.Round(time.Millisecond), float64(acked)/el.Seconds())
}

// fmtNs renders a nanosecond figure human-readably.
func fmtNs(ns int64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// ratio renders a/b as a percentage, "-" when b is zero.
func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}

// fmtBytes renders a byte figure with a binary-unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// printStats renders one STATS snapshot as the operator table.
func printStats(st *client.ServerStats) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()

	fmt.Fprintf(w, "keys\t%d in %d stripes\n", st.KV.Keys, st.KV.Stripes)
	fmt.Fprintf(w, "ops\tget %d  put %d  del %d  scan %d  batch %d\n",
		st.KV.Gets, st.KV.Puts, st.KV.Deletes, st.KV.Scans, st.KV.Batches)
	writes := st.KV.Puts + st.KV.Deletes + st.KV.Batches
	fencesPerWrite := "-"
	if writes > 0 {
		fencesPerWrite = fmt.Sprintf("%.2f", float64(st.DeviceFences)/float64(writes))
	}
	fmt.Fprintf(w, "durability\t%s commits, %d log bytes, %d fences (%s per write), %d flushes\n",
		st.CommitMode, st.LogBytes, st.DeviceFences, fencesPerWrite, st.DeviceFlushes)
	fanIn := "-"
	if st.GroupCommitRounds > 0 {
		fanIn = fmt.Sprintf("%.1f", float64(st.Commits)/float64(st.GroupCommitRounds))
	}
	fmt.Fprintf(w, "group commit\t%d rounds, %d grouped commits, fan-in %s\n",
		st.GroupCommitRounds, st.GroupedCommits, fanIn)
	fmt.Fprintf(w, "read path\t%d seqlock retries, %d latch fallbacks (%s of reads)\n",
		st.KV.ReadRetries, st.KV.ReadFallbacks, ratio(st.KV.ReadFallbacks, st.KV.Gets+st.KV.Scans))
	fmt.Fprintf(w, "write path\tfast-path hit rate %s, %d leaf-latch waits, %d stripe fallbacks\n",
		ratio(st.KV.OverwriteFastPath, st.KV.Puts), st.KV.LeafLatchWaits, st.KV.StripeLatchFallbacks)
	if st.KV.TxnBegins > 0 || st.TxnsActive > 0 || st.TxnsExpired > 0 {
		fmt.Fprintf(w, "txns\t%d begun, %d committed, %d rolled back, %d conflicts, %d active, %d idle-expired\n",
			st.KV.TxnBegins, st.KV.TxnCommits, st.KV.TxnRollbacks, st.KV.TxnConflicts,
			st.TxnsActive, st.TxnsExpired)
	}
	if st.KV.CasAttempts > 0 {
		fmt.Fprintf(w, "cas\t%d attempts, %d applied (%s)\n",
			st.KV.CasAttempts, st.KV.CasApplied, ratio(st.KV.CasApplied, st.KV.CasAttempts))
	}
	fmt.Fprintf(w, "checkpoints\t%d, last pause %s over %d freezes\n",
		st.Checkpoints, fmtNs(st.LastCheckpointPauseNs), st.LastCheckpointChunks)
	if st.Arena.Size > 0 {
		fmt.Fprintf(w, "capacity\tarena %s of %s cap (%d grows, %d segments), heap live %s of %s used, %s on disk, %s punched\n",
			fmtBytes(int64(st.Arena.Size)), fmtBytes(int64(st.Arena.MaxSize)),
			st.Arena.Grows, st.Arena.Segments,
			fmtBytes(int64(st.Arena.HeapLive)), fmtBytes(int64(st.Arena.HeapUsed)),
			fmtBytes(st.Arena.AllocatedBytes), fmtBytes(int64(st.Arena.PunchedBytes)))
		if st.KV.Compactions > 0 {
			fmt.Fprintf(w, "compaction\t%d cycles, %d nodes migrated, %s reclaimed\n",
				st.KV.Compactions, st.KV.CompactedNodes, fmtBytes(st.KV.ReclaimedBytes))
		}
	}
	if st.SlowOps > 0 {
		fmt.Fprintf(w, "slow ops\t%d\n", st.SlowOps)
	}
	if len(st.Latency) > 0 {
		fmt.Fprintf(w, "\nlatency\tcount\tp50\tp95\tp99\tmax\tdevice p50\n")
		for _, op := range []string{"get", "put", "del", "scan", "batch", "stats",
			"begin", "commit", "rollback", "txn_get", "txn_put", "txn_del", "cas", "get_at"} {
			l, ok := st.Latency[op]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %s\t%d\t%s\t%s\t%s\t%s\t%s\n", op, l.Count,
				fmtNs(l.WallP50), fmtNs(l.WallP95), fmtNs(l.WallP99), fmtNs(l.WallMax), fmtNs(l.SimP50))
		}
	}
	if len(st.CommitPhases) > 0 {
		fmt.Fprintf(w, "\ncommit phase\tcount\tp50\tp95\tp99\tmax\tdevice p50\n")
		for _, ph := range []string{"latch_wait", "log_append", "publish", "reply_queue", "gc_gather", "flush_fence"} {
			l, ok := st.CommitPhases[ph]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %s\t%d\t%s\t%s\t%s\t%s\t%s\n", ph, l.Count,
				fmtNs(l.WallP50), fmtNs(l.WallP95), fmtNs(l.WallP99), fmtNs(l.WallMax), fmtNs(l.SimP50))
		}
	}
}

// watchStats polls STATS every interval and prints one delta line per
// tick: interval throughput, fence bill, log growth, fan-in.
func watchStats(cl *client.Client, every time.Duration, die func(error)) {
	prev, err := cl.ServerStats()
	if err != nil {
		die(err)
	}
	prevAt := time.Now()
	fmt.Printf("%-8s %8s %8s %8s %8s %10s %8s %7s\n",
		"", "get/s", "put/s", "del/s", "scan/s", "logB/s", "fence/w", "fan-in")
	for range time.Tick(every) {
		cur, err := cl.ServerStats()
		if err != nil {
			die(err)
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		rate := func(a, b int64) float64 { return float64(a-b) / dt }
		writes := (cur.KV.Puts - prev.KV.Puts) + (cur.KV.Deletes - prev.KV.Deletes) + (cur.KV.Batches - prev.KV.Batches)
		fenceW := "-"
		if writes > 0 {
			fenceW = fmt.Sprintf("%.2f", float64(cur.DeviceFences-prev.DeviceFences)/float64(writes))
		}
		fanIn := "-"
		if r := cur.GroupCommitRounds - prev.GroupCommitRounds; r > 0 {
			fanIn = fmt.Sprintf("%.1f", float64(cur.Commits-prev.Commits)/float64(r))
		}
		fmt.Printf("%-8s %8.0f %8.0f %8.0f %8.0f %10.0f %8s %7s\n",
			now.Format("15:04:05"),
			rate(cur.KV.Gets, prev.KV.Gets), rate(cur.KV.Puts, prev.KV.Puts),
			rate(cur.KV.Deletes, prev.KV.Deletes), rate(cur.KV.Scans, prev.KV.Scans),
			rate(cur.LogBytes, prev.LogBytes), fenceW, fanIn)
		prev, prevAt = cur, now
	}
}
