package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/internal/core"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/kv"
	"github.com/rewind-db/rewind/server"
)

// The daemon's shape: cmd/rewindd's default flags, plus a growth cap so
// churn-crash can outgrow the first 256 MiB.
const (
	arenaBytes    = 256 << 20
	maxArenaBytes = 1 << 30
	kvStripes     = 8
	kvMaxValue    = 512
	gcWindow      = 100 * time.Microsecond
	gcMax         = 64
	logGroupSize  = 64
	slowOp        = 250 * time.Millisecond
	// rewindd's -checkpoint-pause default (2 ms of device time), in lines.
	ckptBudgetLines = int(2 * time.Millisecond / nvm.DefaultWriteLatency)
)

const arenaFile = "arena.nvm"

// stack is the composed public layers, exactly as cmd/rewindd builds them.
type stack struct {
	st  *rewind.Store
	kvs *kv.Store
	srv *server.Server
	reg *obs.Registry // the op and commit-phase latency histograms
}

func openStack(dir string) (*stack, error) {
	reg := obs.NewRegistry()
	o := obs.New(reg, obs.Config{SlowOp: slowOp})
	st, err := rewind.Open(rewind.Options{
		ArenaSize:         arenaBytes,
		MaxArena:          maxArenaBytes,
		BackingFile:       filepath.Join(dir, arenaFile),
		CommitMode:        rewind.UndoRedo,
		LogShards:         1,
		GroupSize:         logGroupSize,
		GroupCommit:       true,
		GroupCommitWindow: gcWindow,
		GroupCommitMax:    gcMax,
		Obs:               o,
	})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	kvs, err := kv.Open(st, kv.Config{Stripes: kvStripes, MaxValue: kvMaxValue, Obs: o})
	if err != nil {
		return nil, fmt.Errorf("opening kv store: %w", err)
	}
	return &stack{st: st, kvs: kvs, srv: server.New(kvs), reg: reg}, nil
}

// ckptTotals accumulates every checkpoint the child has run; the library
// only keeps the last one.
type ckptTotals struct {
	Count      int64
	BusyNs     int64
	MaxPauseNs int64
	Lines      int64
}

// childStats is one snapshot of every counter the parent turns into
// metrics. Counters are cumulative since the child started; the parent
// subtracts snapshots taken at phase boundaries.
type childStats struct {
	Dev      nvm.Stats
	TM       core.Stats
	Server   server.Stats
	Ckpt     ckptTotals
	Recovery core.RecoveryStats
	// Hist is the obs registry's JSON snapshot; the parent reads the count
	// and sum of the rewind_op_*_wall_ns and rewind_commit_*_wall_ns
	// histograms from it (server.Stats carries only bucket-bound quantiles).
	Hist    json.RawMessage
	Mallocs uint64
	AllocB  uint64
	CPUNs   int64 // user+system CPU of the child so far
	VmHWMKB int64
}

// reply is one line from child to parent: the answer to control line ID (0:
// the address, unasked, once the child listens).
type reply struct {
	ID    int
	Addr  string      `json:",omitempty"`
	Stats *childStats `json:",omitempty"`
}

// serve is the daemon child: it composes the stack, listens on a port of
// the kernel's choosing, and answers control lines on stdin until EOF.
// Background work is the parent's to trigger, by acked-write count, so two
// runs of one seed do identical work.
func serve(dir string) error {
	sk, err := openStack(dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go sk.srv.Serve(ln) //nolint:errcheck // ends with the process

	var outMu sync.Mutex
	enc := json.NewEncoder(os.Stdout)
	send := func(r reply) {
		outMu.Lock()
		enc.Encode(r) //nolint:errcheck // a dead parent ends the child below
		outMu.Unlock()
	}
	send(reply{Addr: ln.Addr().String()})

	var ckMu sync.Mutex
	var totals ckptTotals
	// Checkpoints run one at a time, concurrently with the load, in the
	// order asked. The buffer only has to absorb triggers that arrive
	// while one is running.
	ckpts := make(chan int, 64)
	go func() {
		for id := range ckpts {
			cs := sk.st.CheckpointPaced(ckptBudgetLines)
			ckMu.Lock()
			totals.Count++
			totals.BusyNs += cs.TotalNs
			totals.Lines += int64(cs.LinesFlushed)
			if cs.MaxPauseNs > totals.MaxPauseNs {
				totals.MaxPauseNs = cs.MaxPauseNs
			}
			ckMu.Unlock()
			send(reply{ID: id})
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		f := strings.Fields(in.Text())
		if len(f) != 2 {
			return fmt.Errorf("bad control line %q", in.Text())
		}
		id, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("bad control line %q", in.Text())
		}
		switch f[0] {
		case "checkpoint":
			ckpts <- id
		case "stats":
			ckMu.Lock()
			t := totals
			ckMu.Unlock()
			send(reply{ID: id, Stats: snapshot(sk, t)})
		default:
			return fmt.Errorf("bad control line %q", in.Text())
		}
	}
	// Stdin closed: the parent is gone or done. No clean shutdown — the
	// parent removes the directory, and a checkpoint here would only be
	// unmeasured work.
	return in.Err()
}

func snapshot(sk *stack, t ckptTotals) *childStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // zero on failure
	var hist bytes.Buffer
	sk.reg.WriteJSON(&hist) //nolint:errcheck // a buffer does not fail
	return &childStats{
		Hist:     hist.Bytes(),
		Dev:      sk.st.Stats(),
		TM:       sk.st.TMStats(),
		Server:   sk.srv.Stats(),
		Ckpt:     t,
		Recovery: sk.st.Recovery,
		Mallocs:  ms.Mallocs,
		AllocB:   ms.TotalAlloc,
		CPUNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		VmHWMKB:  procStatusKB("VmHWM"),
	}
}

// procStatusKB reads one "Name:  123 kB" field of /proc/self/status.
func procStatusKB(name string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	b, _ := io.ReadAll(f)
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}
