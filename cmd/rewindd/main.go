// Command rewindd serves a REWIND-backed key-value store over TCP.
//
// The store's durable image is mmapped onto -backing, so every
// acknowledged write is in the OS page cache the moment its commit round
// flushes: a SIGKILLed daemon restarted on the same file recovers every
// write it ever acked (the crash-torture suite kills it mid-load to prove
// it). Commits are merged into shared group-commit flushes unless
// -group-commit=false — across connections, and within one: a connection
// that pipelines requests has its whole burst published before any of it
// waits, so one socket fills a flush by itself.
//
// Usage:
//
//	rewindd -addr :7707 -backing /var/lib/rewind/arena.nvm
//	rewindd -backing arena.nvm -stripes 16 -shards 4
//	rewindd -backing arena.nvm -metrics-addr 127.0.0.1:7708
//
// With -metrics-addr set, a sidecar HTTP listener serves Prometheus text
// exposition on /metrics, a flat JSON snapshot on /statsz, and the
// standard net/http/pprof profiling endpoints under /debug/pprof/.
// Observability (per-request latency histograms, commit-pipeline phase
// timings, per-connection flight recorders, the slow-op log) is on by
// default — it touches no device state and costs a few atomic adds per
// request — and -obs-off turns it back off.
//
// SIGINT/SIGTERM shut down cleanly (checkpoint + msync); SIGKILL is the
// crash the recovery machinery exists for.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/kv"
	"github.com/rewind-db/rewind/server"
)

// activity is one interval's worth of serving counters — the delta basis
// for the periodic stats ticker.
type activity struct {
	at                   time.Time
	ops                  int64 // gets+puts+dels+scans+batches
	gets, scans          int64
	puts, dels           int64
	retries, fallbacks   int64
	fastPath, latchWaits int64
	stripeFallbacks      int64
	fences               int64
	logBytes             int64
	commits, rounds      int64
	grouped              int64
}

func snapshotActivity(kvs *kv.Store, st *rewind.Store) activity {
	ks := kvs.Stats()
	dev := st.Stats()
	var commits, rounds, grouped int64
	for _, sh := range st.ShardStats() {
		commits += sh.Commits
		rounds += sh.GroupCommitRounds
		grouped += sh.GroupedCommits
	}
	return activity{
		at:   time.Now(),
		ops:  ks.Gets + ks.Puts + ks.Deletes + ks.Scans + ks.Batches,
		gets: ks.Gets, scans: ks.Scans, puts: ks.Puts, dels: ks.Deletes,
		retries: ks.ReadRetries, fallbacks: ks.ReadFallbacks,
		fastPath: ks.OverwriteFastPath, latchWaits: ks.LeafLatchWaits,
		stripeFallbacks: ks.StripeLatchFallbacks,
		fences:          dev.Fences,
		logBytes:        st.LogBytes(),
		commits:         commits, rounds: rounds, grouped: grouped,
	}
}

// logActivity emits the interval summary lines: throughput and
// durability-cost rates, then the read-path and write-path breakdowns.
// The same lines run from the periodic ticker and once more at clean
// shutdown, so a SIGKILLed daemon has lost at most one interval of
// summary — not the whole run, as when these printed only at exit.
func logActivity(prev, cur activity) {
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return
	}
	ops := cur.ops - prev.ops
	if ops == 0 {
		return // idle interval: stay quiet
	}
	writes := (cur.puts - prev.puts) + (cur.dels - prev.dels)
	fencesPerOp := 0.0
	if writes > 0 {
		fencesPerOp = float64(cur.fences-prev.fences) / float64(writes)
	}
	fanIn := 0.0
	if r := cur.rounds - prev.rounds; r > 0 {
		fanIn = float64(cur.commits-prev.commits) / float64(r)
	}
	log.Printf("rewindd: stats: %d ops (%.0f/s), %.2f fences/write, %.0f log B/s, group-commit fan-in %.1f",
		ops, float64(ops)/dt, fencesPerOp, float64(cur.logBytes-prev.logBytes)/dt, fanIn)
	if reads := (cur.gets - prev.gets) + (cur.scans - prev.scans); reads > 0 {
		log.Printf("rewindd: read path: %d gets / %d scans, %d seqlock retries, %d latch fallbacks",
			cur.gets-prev.gets, cur.scans-prev.scans,
			cur.retries-prev.retries, cur.fallbacks-prev.fallbacks)
	}
	if writes > 0 {
		log.Printf("rewindd: write path: %d puts / %d deletes, %d overwrite fast-path hits, %d leaf-latch waits, %d stripe-latch fallbacks",
			cur.puts-prev.puts, cur.dels-prev.dels,
			cur.fastPath-prev.fastPath, cur.latchWaits-prev.latchWaits,
			cur.stripeFallbacks-prev.stripeFallbacks)
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "TCP listen address")
	backing := flag.String("backing", "", "backing file for the durable image (required)")
	arena := flag.Int("arena", 256<<20, "initial arena size in bytes (new files only)")
	maxArena := flag.Int("max-arena", 0, "arena growth cap in bytes (0 or <= -arena: fixed-size arena, no growth)")
	growStep := flag.Int("grow-step", 0, "arena growth increment in bytes (0: grow by the current arena size)")
	compactEvery := flag.Int("compact-every", 1, "run one compaction step every N checkpoints (0 disables background compaction)")
	compactDead := flag.Float64("compact-dead-frac", 0.6, "condemn a heap segment when this fraction of its occupied bytes is dead")
	compactMinDead := flag.Int64("compact-min-dead", 1<<20, "minimum dead bytes before a segment is worth compacting")
	compactMoves := flag.Int("compact-moves", 64, "tree nodes migrated per compaction transaction (bounds the per-txn stall)")
	syncEvery := flag.Duration("sync-every", 0, "msync the backing file this often for a physical-durability bound beyond the page cache (0 disables)")
	stripes := flag.Int("stripes", 8, "kv key stripes (fixed at store creation)")
	shards := flag.Int("shards", 1, "log shards")
	maxValue := flag.Int("max-value", 512, "largest value size in bytes (fixed at store creation)")
	exclusiveReads := flag.Bool("exclusive-reads", false, "route GET/SCAN through the stripe latches instead of the latch-free seqlock read path (escape hatch / baseline)")
	readRetries := flag.Int("read-retries", 0, "optimistic read attempts before a GET/SCAN falls back to the stripe latch (0 = default)")
	serialWrites := flag.Bool("serial-writes", false, "serialize writers per stripe behind one latch instead of the per-leaf / CAS-overwrite fine-grained write path (escape hatch / baseline)")
	commitMode := flag.String("commit-mode", "undo-redo", `logging protocol: "undo-redo" (in-place writes, both images logged) or "redo-only" (private buffers, half the log volume, undo-free recovery)`)
	groupCommit := flag.Bool("group-commit", true, "merge concurrent commits into shared log flushes")
	gcWindow := flag.Duration("gc-window", 100*time.Microsecond, "group-commit gather window: how long connections with ONE request in flight wait for each other; never slept by a lone commit or a pipelined burst")
	gcMax := flag.Int("gc-max", 64, "close a commit round's gather early at this many waiting connections")
	groupSize := flag.Int("group-size", 64, "Batch log records per self-scheduled flush group")
	ckptEvery := flag.Duration("checkpoint", 5*time.Second, "checkpoint interval (0 disables); bounds log growth and recovery time")
	ckptPause := flag.Duration("checkpoint-pause", 2*time.Millisecond, "per-freeze checkpoint pause budget in simulated device time (0 disables pacing: one freeze-all pause)")
	recWorkers := flag.Int("recovery-workers", 0, "goroutines for the parallel recovery pass at startup (0 = one per CPU, capped at -shards)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus), /statsz (JSON) and /debug/pprof (empty disables)")
	obsOff := flag.Bool("obs-off", false, "disable request/commit-phase latency recording, flight recorders and the slow-op log (gauge families on /metrics stay)")
	slowOp := flag.Duration("slow-op", 250*time.Millisecond, "log any request slower than this with its commit-phase breakdown (0 disables)")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "log interval throughput/read-path/write-path summaries this often (0 disables)")
	txnIdle := flag.Duration("txn-idle", time.Minute, "roll back interactive transactions idle longer than this (0 = default)")
	flag.Parse()

	if *backing == "" {
		fmt.Fprintln(os.Stderr, "rewindd: -backing is required (the durable image must live in a file)")
		os.Exit(2)
	}
	var mode rewind.CommitMode
	switch *commitMode {
	case "undo-redo", "ur":
		mode = rewind.UndoRedo
	case "redo-only", "ro":
		mode = rewind.RedoOnly
	default:
		fmt.Fprintf(os.Stderr, "rewindd: -commit-mode %q: want undo-redo or redo-only\n", *commitMode)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	var o *obs.Obs
	if !*obsOff {
		o = obs.New(reg, obs.Config{SlowOp: *slowOp})
	}

	st, err := rewind.Open(rewind.Options{
		ArenaSize:         *arena,
		MaxArena:          *maxArena,
		GrowStep:          *growStep,
		BackingFile:       *backing,
		CommitMode:        mode,
		LogShards:         *shards,
		GroupSize:         *groupSize,
		GroupCommit:       *groupCommit,
		GroupCommitWindow: *gcWindow,
		GroupCommitMax:    *gcMax,
		RecoveryWorkers:   *recWorkers,
		Obs:               o,
	})
	if err != nil {
		log.Fatalf("rewindd: opening store: %v", err)
	}
	if st.Recovery.CrashDetected {
		log.Printf("rewindd: recovered from crash: %d records scanned, %d losers aborted, %d winners (%d workers, analysis %v, redo %v, undo %v)",
			st.Recovery.RecordsScanned, st.Recovery.LosersAborted, st.Recovery.Winners,
			st.Recovery.Workers,
			time.Duration(st.Recovery.AnalysisNs), time.Duration(st.Recovery.RedoNs),
			time.Duration(st.Recovery.UndoNs))
	}
	if st.Recovery.ArenaSegments > 1 {
		log.Printf("rewindd: arena had grown to %d bytes across %d segments before restart",
			st.Recovery.ArenaSize, st.Recovery.ArenaSegments)
	}
	kvs, err := kv.Open(st, kv.Config{
		Stripes: *stripes, MaxValue: *maxValue,
		ExclusiveReads: *exclusiveReads, ReadRetries: *readRetries,
		SerialWrites: *serialWrites,
		Obs:          o,
	})
	if err != nil {
		log.Fatalf("rewindd: opening kv store: %v", err)
	}
	readMode := "latch-free reads"
	if *exclusiveReads {
		readMode = "exclusive-latch reads"
	}
	writeMode := "fine-grained writes"
	if *serialWrites {
		writeMode = "stripe-serial writes"
	}
	log.Printf("rewindd: %d keys across %d stripes, %s commits, group commit %v, %s, %s",
		kvs.Len(), *stripes, *commitMode, *groupCommit, readMode, writeMode)

	srv := server.New(kvs)
	srv.SetTxnIdle(*txnIdle)
	st.RegisterMetrics(reg)
	kvs.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/statsz", reg.JSONHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("rewindd: metrics listener: %v", err)
			}
		}()
		log.Printf("rewindd: metrics on http://%s/metrics (statsz, pprof alongside)", *metricsAddr)
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()

	// -checkpoint-pause is a device-time budget; the pacer works in cache
	// lines, so convert at the simulated per-line write cost. Zero or
	// negative disables pacing (the old freeze-all behaviour).
	budgetLines := -1
	if *ckptPause > 0 {
		budgetLines = int(*ckptPause / nvm.DefaultWriteLatency)
		if budgetLines < 1 {
			budgetLines = 1
		}
	}
	stopBg := make(chan struct{})
	var bgDone sync.WaitGroup
	if *ckptEvery > 0 {
		// Periodic checkpoints trim the NoForce log (§4.6) while serving
		// continues, keeping recovery after a kill proportional to the work
		// since the last checkpoint, not since boot. The budgeted
		// incremental path means the ticker no longer stalls every live
		// connection for a whole-cache flush: each freeze drains at most
		// the pause budget, and committers run between freezes.
		bgDone.Add(1)
		go func() {
			defer bgDone.Done()
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			ticks := 0
			for {
				select {
				case <-tick.C:
					cs := st.CheckpointPaced(budgetLines)
					if cs.MaxPauseNs > int64(10*time.Millisecond) {
						log.Printf("rewindd: checkpoint pause %v across %d freezes (%d lines)",
							time.Duration(cs.MaxPauseNs), cs.Chunks, cs.LinesFlushed)
					}
					// Compaction rides the checkpoint cadence: the checkpoint
					// just freed retired log records, so occupancy is at its
					// most honest right after one.
					ticks++
					if *compactEvery > 0 && ticks%*compactEvery == 0 {
						res, err := kvs.CompactStep(kv.CompactConfig{
							DeadFraction:   *compactDead,
							MinDeadBytes:   *compactMinDead,
							MaxMovesPerTxn: *compactMoves,
						})
						if err != nil {
							log.Printf("rewindd: compaction: %v", err)
						} else if res.Compacted {
							log.Printf("rewindd: compacted segment [%#x,%#x): %d nodes migrated, %d bytes reclaimed",
								res.Start, res.End, res.Moved, res.Released)
						}
					}
				case <-stopBg:
					return
				}
			}
		}()
	}
	if *syncEvery > 0 {
		// Periodic msync bounds how long an acked write can sit only in the
		// page cache: a machine-level crash (not just a process kill) loses
		// at most one interval. Process kills were already covered — the
		// mmap survives them.
		bgDone.Add(1)
		go func() {
			defer bgDone.Done()
			tick := time.NewTicker(*syncEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := st.Sync(); err != nil {
						log.Printf("rewindd: sync: %v", err)
					}
				case <-stopBg:
					return
				}
			}
		}()
	}
	last := snapshotActivity(kvs, st)
	if *statsEvery > 0 {
		bgDone.Add(1)
		go func() {
			defer bgDone.Done()
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			prev := last
			for {
				select {
				case <-tick.C:
					cur := snapshotActivity(kvs, st)
					logActivity(prev, cur)
					prev = cur
				case <-stopBg:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("rewindd: serving on %s (backing %s)", *addr, *backing)
	select {
	case s := <-sig:
		log.Printf("rewindd: %v: shutting down", s)
		close(stopBg)
		bgDone.Wait() // an in-flight checkpoint must not race the unmap
		if metricsSrv != nil {
			metricsSrv.Close()
		}
		srv.Close() // waits for in-flight handlers too
		// One final whole-run summary: the same lines the ticker printed,
		// measured from boot.
		logActivity(activity{at: last.at}, snapshotActivity(kvs, st))
		if lb := st.LogBytes(); lb > 0 {
			log.Printf("rewindd: %s commits appended %d log bytes", *commitMode, lb)
		}
		ai := st.ArenaInfo()
		log.Printf("rewindd: arena %d of %d bytes (%d grows, %d segments), heap %d live of %d high-water, %d punched back",
			ai.Size, ai.MaxSize, ai.Grows, ai.Segments, ai.HeapLive, ai.HeapUsed, ai.PunchedBytes)
		if err := st.Close(); err != nil {
			log.Fatalf("rewindd: close: %v", err)
		}
	case err := <-done:
		if err != nil && err != server.ErrServerClosed {
			log.Fatalf("rewindd: serve: %v", err)
		}
	}
}
