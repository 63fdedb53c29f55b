// Command rewindd serves a REWIND-backed key-value store over TCP.
//
// The store's durable image is mmapped onto -backing, so every
// acknowledged write is in the OS page cache the moment its commit round
// flushes: a SIGKILLed daemon restarted on the same file recovers every
// write it ever acked (the crash-torture suite kills it mid-load to prove
// it). Commits are merged into shared group-commit flushes — across
// connections, and within one: a connection that pipelines requests has its
// whole burst published before any of it waits, so one socket fills a flush
// by itself.
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
// timings, per-connection flight recorders, the slow-op log) is always on:
// it touches no device state and costs a few atomic adds per request. Those
// endpoints and the wire STATS op carry every serving counter; the log
// keeps to events (recovery, long checkpoint freezes, compaction, shutdown).
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

// The daemon's fixed shape: values no deployment, test or benchmark sets
// differently (benchmark/child.go mirrors them).
const (
	// gcWindow is how long connections with ONE request in flight wait for
	// each other in a commit round (never slept by a lone commit or a
	// pipelined burst); gcMax closes the gather early.
	gcWindow = 100 * time.Microsecond
	gcMax    = 64
	// logGroupSize is the Batch log's records per self-scheduled flush group.
	logGroupSize = 64
	// ckptPause is the per-freeze checkpoint budget in simulated device
	// time; the pacer works in cache lines, so it is converted at the
	// simulated per-line write cost.
	ckptPause       = 2 * time.Millisecond
	ckptBudgetLines = int(ckptPause / nvm.DefaultWriteLatency)
	// compactMinDead is the dead bytes a heap segment needs before it is
	// worth compacting (the condemnation fraction and the per-transaction
	// move bound are kv's defaults).
	compactMinDead = 1 << 20
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "TCP listen address")
	backing := flag.String("backing", "", "backing file for the durable image (required)")
	arena := flag.Int("arena", 256<<20, "initial arena size in bytes (new files only)")
	maxArena := flag.Int("max-arena", 0, "arena growth cap in bytes (0 or <= -arena: fixed-size arena, no growth)")
	growStep := flag.Int("grow-step", 0, "arena growth increment in bytes (0: grow by the current arena size)")
	compactEvery := flag.Int("compact-every", 1, "run one compaction step every N checkpoints (0 disables background compaction)")
	syncEvery := flag.Duration("sync-every", 0, "msync the backing file this often for a physical-durability bound beyond the page cache (0 disables)")
	stripes := flag.Int("stripes", 8, "kv key stripes (fixed at store creation)")
	shards := flag.Int("shards", 1, "log shards")
	maxValue := flag.Int("max-value", 512, "largest value size in bytes (fixed at store creation)")
	commitMode := flag.String("commit-mode", "undo-redo", `logging protocol: "undo-redo" (in-place writes, both images logged) or "redo-only" (private buffers, half the log volume, undo-free recovery)`)
	ckptEvery := flag.Duration("checkpoint", 5*time.Second, "checkpoint interval (0 disables); bounds log growth and recovery time")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus), /statsz (JSON) and /debug/pprof (empty disables)")
	slowOp := flag.Duration("slow-op", 250*time.Millisecond, "log any request slower than this with its commit-phase breakdown (0 disables)")
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
	o := obs.New(reg, obs.Config{SlowOp: *slowOp})

	st, err := rewind.Open(rewind.Options{
		ArenaSize:         *arena,
		MaxArena:          *maxArena,
		GrowStep:          *growStep,
		BackingFile:       *backing,
		CommitMode:        mode,
		LogShards:         *shards,
		GroupSize:         logGroupSize,
		GroupCommit:       true,
		GroupCommitWindow: gcWindow,
		GroupCommitMax:    gcMax,
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
	kvs, err := kv.Open(st, kv.Config{Stripes: *stripes, MaxValue: *maxValue, Obs: o})
	if err != nil {
		log.Fatalf("rewindd: opening kv store: %v", err)
	}
	log.Printf("rewindd: %d keys across %d stripes, %s commits", kvs.Len(), *stripes, *commitMode)

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
					cs := st.CheckpointPaced(ckptBudgetLines)
					if cs.MaxPauseNs > int64(10*time.Millisecond) {
						log.Printf("rewindd: checkpoint pause %v across %d freezes (%d lines)",
							time.Duration(cs.MaxPauseNs), cs.Chunks, cs.LinesFlushed)
					}
					// Compaction rides the checkpoint cadence: the checkpoint
					// just freed retired log records, so occupancy is at its
					// most honest right after one.
					ticks++
					if *compactEvery > 0 && ticks%*compactEvery == 0 {
						res, err := kvs.CompactStep(kv.CompactConfig{MinDeadBytes: compactMinDead})
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
