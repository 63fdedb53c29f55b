package client

import "encoding/json"

// LatencySummary mirrors the server's per-op / per-phase histogram
// summary: operation count plus wall-clock and simulated-device-time
// quantiles in nanoseconds.
type LatencySummary struct {
	Count                              int64
	WallP50, WallP95, WallP99, WallMax int64
	SimP50, SimP95, SimP99, SimMax     int64
}

// KVStats mirrors the store activity block of the STATS document.
type KVStats struct {
	Gets, Puts, Deletes, Scans, Batches                     int64
	ReadRetries, ReadFallbacks                              int64
	OverwriteFastPath, LeafLatchWaits, StripeLatchFallbacks int64
	TxnBegins, TxnCommits, TxnRollbacks, TxnConflicts       int64
	CasAttempts, CasApplied                                 int64
	Compactions, CompactedNodes, ReclaimedBytes             int64
	Keys                                                    int
	Stripes                                                 int
}

// ArenaStats mirrors the arena capacity block of the STATS document
// (zero on servers predating growable arenas).
type ArenaStats struct {
	Size, MaxSize      int
	Grows, Segments    int
	HeapUsed, HeapLive int
	PunchedBytes       uint64
	AllocatedBytes     int64
}

// ServerStats is the typed STATS response. It decodes tolerantly: fields
// a newer server adds are ignored, fields an older server lacks stay
// zero, so any client version can read any server version's document.
type ServerStats struct {
	Accepted, Requests, Errored                int64
	TxnsActive, TxnsExpired                    int64
	KV                                         KVStats
	GroupCommitRounds, GroupedCommits, Commits int64
	CommitMode                                 string
	LogBytes                                   int64
	Checkpoints                                int64
	LastCheckpointPauseNs                      int64
	LastCheckpointChunks                       int
	// Device counters (absent — zero — on pre-observability servers).
	DeviceFences, DeviceFlushes, DeviceLineWrites, DeviceSimNs int64
	// Latency and CommitPhases are the observability histogram summaries,
	// keyed by op kind ("get", "put", ...) and commit phase ("latch_wait",
	// "flush_fence", ...). Nil when the server was embedded without an
	// Obs or predates them.
	Latency      map[string]LatencySummary
	CommitPhases map[string]LatencySummary
	SlowOps      int64
	Arena        ArenaStats
}

// ServerStats fetches and decodes the server's STATS document.
func (cl *Client) ServerStats() (*ServerStats, error) {
	doc, err := cl.Stats()
	if err != nil {
		return nil, err
	}
	st := &ServerStats{}
	if err := json.Unmarshal(doc, st); err != nil {
		return nil, err
	}
	return st, nil
}
