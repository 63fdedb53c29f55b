package main

import (
	"encoding/json"

	"github.com/rewind-db/rewind/internal/obs"
)

// perLayer is one block per layer of the stack, top to bottom. The *_incl_us
// and *_self_us rows come from the traced run's ledger; everything else is a
// counter the daemon read from a public accessor at the measured phase's two
// ends, or a timing the parent took. README.md says which end-to-end metric
// each should move, and on which workload.
var perLayer = []metricDef{
	{name: "client.ops_per_s", unit: "1/s", better: "higher"},
	{name: "client.lat_p50_us", unit: "us", better: "lower"},
	{name: "client.lat_p99_us", unit: "us", better: "lower"},
	{name: "client.lat_p999_us", unit: "us", better: "lower"},
	{name: "client.lat_max_us", unit: "us", better: "lower"},
	{name: "client.lat_samples", unit: "count", better: "higher"},
	{name: "client.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "client.incl_us", unit: "us", better: "lower"},

	{name: "wire.self_us", unit: "us", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},

	{name: "server.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "server.op_wall_mean_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.errored", unit: "count", better: "lower"},

	{name: "kv.incl_us", unit: "us", better: "lower"},
	{name: "kv.self_us", unit: "us", better: "lower"},
	{name: "kv.fast_path_ratio", unit: "x", better: "higher"},
	{name: "kv.leaf_latch_waits_per_kop", unit: "count", better: "lower"},
	{name: "kv.stripe_fallbacks_per_kop", unit: "count", better: "lower"},
	{name: "kv.read_retries_per_kop", unit: "count", better: "lower"},
	{name: "kv.read_fallbacks_per_kop", unit: "count", better: "lower"},

	{name: "btree.incl_us", unit: "us", better: "lower"},
	{name: "btree.self_us", unit: "us", better: "lower"},
	{name: "btree.loads_per_lookup", unit: "count", better: "lower"},

	{name: "core.incl_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.commits_per_round", unit: "count", better: "higher"},
	{name: "core.gather_wall_mean_us", unit: "us", better: "lower"},
	{name: "core.flush_fence_wall_mean_us", unit: "us", better: "lower"},
	{name: "core.latch_wait_wall_mean_us", unit: "us", better: "lower"},
	{name: "core.log_append_wall_mean_us", unit: "us", better: "lower"},
	{name: "core.ckpt_count", unit: "count", better: "lower"},
	{name: "core.ckpt_busy_s", unit: "s", better: "lower"},
	{name: "core.ckpt_max_pause_ms", unit: "ms", better: "lower"},
	{name: "core.ckpt_lines_per_kop", unit: "count", better: "lower"},
	{name: "core.recovery_records", unit: "count", better: "lower"},
	{name: "core.recovery_analysis_ms", unit: "ms", better: "lower"},
	{name: "core.recovery_redo_ms", unit: "ms", better: "lower"},
	{name: "core.recovery_undo_ms", unit: "ms", better: "lower"},

	{name: "rlog.incl_us", unit: "us", better: "lower"},
	{name: "rlog.self_us", unit: "us", better: "lower"},
	{name: "rlog.log_bytes_per_write", unit: "B", better: "lower"},

	{name: "pmem.incl_us", unit: "us", better: "lower"},
	{name: "pmem.heap_live_mb", unit: "MB", better: "lower"},
	{name: "pmem.heap_used_mb", unit: "MB", better: "lower"},
	{name: "pmem.arena_mb", unit: "MB", better: "lower"},
	{name: "pmem.grows", unit: "count", better: "lower"},

	{name: "nvm.incl_us", unit: "us", better: "lower"},
	{name: "nvm.line_writes_per_write", unit: "count", better: "lower"},
	{name: "nvm.fences_per_write", unit: "count", better: "lower"},
	{name: "nvm.flushes_per_write", unit: "count", better: "lower"},
	{name: "nvm.nt_stores_per_write", unit: "count", better: "lower"},
	{name: "nvm.coalesced_ratio", unit: "x", better: "higher"},

	{name: "obs.self_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "env.cal_ms", unit: "ms", better: "lower"},
}

// hist is the count and sum of one obs histogram.
type hist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

func (h hist) meanUs() float64 { return ratio(us(h.Sum), float64(h.Count)) }

// histograms picks the histograms out of the obs registry's JSON snapshot,
// whose other entries are plain numbers.
func histograms(raw json.RawMessage) map[string]hist {
	var all map[string]json.RawMessage
	json.Unmarshal(raw, &all) //nolint:errcheck // no snapshot: every mean reads 0
	out := map[string]hist{}
	for name, v := range all {
		var h hist
		if json.Unmarshal(v, &h) == nil {
			out[name] = h
		}
	}
	return out
}

// ratio is a/b, and 0 where the workload gives b nothing to count (a
// read-only phase has no writes to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues computes every per-layer metric of a run; l is nil
// without a traced run, which leaves the ledger rows at 0.
func (res *runResult) perLayerValues(l *ledger) map[string]float64 {
	ph := &res.phase
	a, b := ph.after, ph.before
	ops := float64(len(ph.ops))
	kop := ops / 1000
	lat := sortedCopy(ph.lat)
	ka, kb := a.Server.KV, b.Server.KV
	writes := float64(ka.Puts + ka.Deletes - kb.Puts - kb.Deletes)
	dev := a.Dev.Sub(b.Dev)
	ha, hb := histograms(a.Hist), histograms(b.Hist)
	var opWall hist // every request kind the server timed during the phase
	for k := obs.OpKind(0); k < obs.NumOps; k++ {
		name := "rewind_op_" + k.String() + "_wall_ns"
		opWall.Count += ha[name].Count - hb[name].Count
		opWall.Sum += ha[name].Sum - hb[name].Sum
	}
	// Commit phases since the daemon started, load included: the read-only
	// phase commits nothing, and a time that is always 0 says nothing.
	phaseMean := func(p obs.Phase) float64 { return ha["rewind_commit_"+p.String()+"_wall_ns"].meanUs() }

	v := map[string]float64{
		"client.ops_per_s":            ops / ph.wall.Seconds(),
		"client.lat_p50_us":           us(percentile(lat, 0.50)),
		"client.lat_p99_us":           us(percentile(lat, 0.99)),
		"client.lat_p999_us":          us(percentile(lat, 0.999)),
		"client.lat_max_us":           us(percentile(lat, 1)),
		"client.lat_samples":          ops,
		"client.gen_late_p99_us":      us(percentile(sortedCopy(ph.late), 0.99)),
		"server.cpu_us_per_op":        us(a.CPUNs-b.CPUNs) / ops,
		"server.op_wall_mean_us":      opWall.meanUs(),
		"server.errored":              float64(a.Server.Errored - b.Server.Errored),
		"kv.fast_path_ratio":          ratio(float64(ka.OverwriteFastPath-kb.OverwriteFastPath), float64(ka.Puts-kb.Puts)),
		"kv.leaf_latch_waits_per_kop": float64(ka.LeafLatchWaits-kb.LeafLatchWaits) / kop,
		"kv.stripe_fallbacks_per_kop": float64(ka.StripeLatchFallbacks-kb.StripeLatchFallbacks) / kop,
		"kv.read_retries_per_kop":     float64(ka.ReadRetries-kb.ReadRetries) / kop,
		"kv.read_fallbacks_per_kop":   float64(ka.ReadFallbacks-kb.ReadFallbacks) / kop,
		"core.commits_per_round": ratio(float64(a.Server.Commits-b.Server.Commits),
			float64(a.Server.GroupCommitRounds-b.Server.GroupCommitRounds)),
		"core.gather_wall_mean_us":      phaseMean(obs.PhaseGather),
		"core.flush_fence_wall_mean_us": phaseMean(obs.PhaseFlushFence),
		"core.latch_wait_wall_mean_us":  phaseMean(obs.PhaseLatchWait),
		"core.log_append_wall_mean_us":  phaseMean(obs.PhaseLogAppend),
		"core.ckpt_count":               float64(a.Ckpt.Count - b.Ckpt.Count),
		"core.ckpt_busy_s":              float64(a.Ckpt.BusyNs) / 1e9, // since the daemon started, as above
		"core.ckpt_max_pause_ms":        float64(a.Ckpt.MaxPauseNs) / 1e6,
		"core.ckpt_lines_per_kop":       float64(a.Ckpt.Lines-b.Ckpt.Lines) / kop,
		"rlog.log_bytes_per_write":      ratio(float64(a.TM.LogBytes-b.TM.LogBytes), writes),
		"pmem.heap_live_mb":             float64(a.Server.Arena.HeapLive) / (1 << 20),
		"pmem.heap_used_mb":             float64(a.Server.Arena.HeapUsed) / (1 << 20),
		"pmem.arena_mb":                 float64(a.Server.Arena.Size) / (1 << 20),
		"pmem.grows":                    float64(a.Server.Arena.Grows),
		"nvm.line_writes_per_write":     ratio(float64(dev.LineWrites), writes),
		"nvm.fences_per_write":          ratio(float64(dev.Fences), writes),
		"nvm.flushes_per_write":         ratio(float64(dev.Flushes), writes),
		"nvm.nt_stores_per_write":       ratio(float64(dev.NTStores), writes),
		"nvm.coalesced_ratio":           ratio(float64(dev.Coalesced), float64(dev.Coalesced+dev.LineWrites)),
		"env.cal_ms":                    float64(res.calBefore+res.calAfter) / 2e6,
	}
	if r := res.lastRec; r != nil {
		v["core.recovery_records"] = float64(r.Recovery.RecordsScanned)
		v["core.recovery_analysis_ms"] = float64(r.Recovery.AnalysisNs) / 1e6
		v["core.recovery_redo_ms"] = float64(r.Recovery.RedoNs) / 1e6
		v["core.recovery_undo_ms"] = float64(r.Recovery.UndoNs) / 1e6
	}
	if l != nil {
		in := map[string]float64{}
		for layer := range l.durs {
			in[layer] = l.incl(layer)
		}
		v["client.incl_us"] = in["client"]
		v["wire.self_us"] = in["wire"]
		v["server.self_us"] = in["client"] - in["wire"] - in["kv"]
		v["kv.incl_us"] = in["kv"]
		v["kv.self_us"] = in["kv"] - in["btree"]
		v["btree.incl_us"] = in["btree"]
		v["btree.self_us"] = in["btree"] - in["core"]
		v["core.incl_us"] = in["core"]
		v["core.self_us"] = in["core"] - in["rlog"]
		v["rlog.incl_us"] = in["rlog"]
		v["rlog.self_us"] = in["rlog"] - in["pmem"]
		v["pmem.incl_us"] = in["pmem"]
		v["nvm.incl_us"] = in["nvm"]
		v["obs.self_us"] = in["obs"]
		v["wire.bytes_per_op"] = l.wireBytesPerOp
		v["btree.loads_per_lookup"] = l.loadsPerLookup
		v["trace.overhead_pct"] = l.overheadPct
	}
	return v
}
