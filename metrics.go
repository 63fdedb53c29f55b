package rewind

import "github.com/rewind-db/rewind/internal/obs"

// RegisterMetrics publishes the store's counters — simulated device
// activity, transaction manager totals, log occupancy, recovery and
// checkpoint reports — as gauge families on r, under the rewind_*
// namespace. Each scrape snapshots the underlying stats once and emits
// every family from that snapshot, so a single exposition is internally
// consistent. Call once per store; the registry panics on duplicate
// family names.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.Group(func(emitf func(name, help string, v float64)) {
		emit := func(name, help string, v int64) { emitf(name, help, float64(v)) }
		d := s.Stats()
		emit("rewind_device_loads_total", "64-bit word loads issued to the simulated NVM device.", d.Loads)
		emit("rewind_device_cached_stores_total", "Cached (volatile until flushed) word stores.", d.CachedStores)
		emit("rewind_device_nt_stores_total", "Non-temporal durable word stores.", d.NTStores)
		emit("rewind_device_flushes_total", "Dirty cache lines made durable by flushes.", d.Flushes)
		emit("rewind_device_fences_total", "Persistent memory fences.", d.Fences)
		emit("rewind_device_line_writes_total", "Charged NVM line writes after coalescing (the paper's NVM-write unit).", d.LineWrites)
		emit("rewind_device_coalesced_total", "Durable writes absorbed by the same-line coalescing window.", d.Coalesced)
		emit("rewind_device_simulated_ns", "Virtual device clock: total charged latency in nanoseconds.", d.SimulatedNS)

		t := s.TMStats()
		emit("rewind_txns_begun_total", "Transactions begun.", t.Begun)
		emit("rewind_txns_committed_total", "Transactions committed.", t.Committed)
		emit("rewind_txns_rolled_back_total", "Transactions rolled back.", t.RolledBack)
		emit("rewind_log_records_total", "Log records appended across all shards.", t.Records)
		emit("rewind_log_bytes_total", "Cumulative log record footprint in bytes (headers + payloads).", t.LogBytes)
		emit("rewind_checkpoints_total", "Checkpoints taken.", t.Checkpoints)
		var flushes, gcRounds, grouped, uncontended int64
		for _, sh := range t.Shards {
			flushes += sh.Flushes
			gcRounds += sh.GroupCommitRounds
			grouped += sh.GroupedCommits
			uncontended += sh.UncontendedCommits
		}
		emit("rewind_log_flushes_total", "Batch group flushes issued across all log shards.", flushes)
		emit("rewind_gc_rounds_total", "Group-commit rounds led (shared flushes issued by round leaders).", gcRounds)
		emit("rewind_gc_grouped_commits_total", "Commits that shared a group-commit round with at least one other transaction.", grouped)
		emit("rewind_commits_uncontended_total", "Commits that acquired their shard without waiting.", uncontended)

		var live, buckets, occupied int64
		for i := 0; i < s.tm.NumShards(); i++ {
			if l := s.tm.ShardLog(i); l != nil {
				rec, bk, bytes := l.Occupancy()
				live += int64(rec)
				buckets += int64(bk)
				occupied += bytes
			}
		}
		emit("rewind_log_live_records", "Log records currently live (not yet cleared) across all shards.", live)
		emit("rewind_log_buckets", "Log buckets currently allocated across all shards.", buckets)
		emit("rewind_log_occupancy_bytes", "Bytes of the log buckets currently allocated across all shards, records included.", occupied)

		ck := s.LastCheckpoint()
		emit("rewind_checkpoint_last_chunks", "Freeze windows taken by the most recent checkpoint.", int64(ck.Chunks))
		emit("rewind_checkpoint_last_lines_flushed", "Cache lines flushed by the most recent checkpoint.", int64(ck.LinesFlushed))
		emit("rewind_checkpoint_last_max_pause_ns", "Longest single freeze pause of the most recent checkpoint, wall clock.", ck.MaxPauseNs)
		emit("rewind_checkpoint_last_max_pause_sim_ns", "Longest single freeze pause of the most recent checkpoint on the virtual device clock.", ck.MaxPauseSimNs)
		emit("rewind_checkpoint_last_total_ns", "Full wall-clock duration of the most recent checkpoint.", ck.TotalNs)

		rec := s.Recovery
		crash := int64(0)
		if rec.CrashDetected {
			crash = 1
		}
		emit("rewind_recovery_crash_detected", "1 when the last Open found an unclean shutdown and ran crash recovery.", crash)
		emit("rewind_recovery_records_scanned", "Records visited by the last recovery's analysis phase.", int64(rec.RecordsScanned))
		emit("rewind_recovery_redone", "Redo-phase record applications during the last recovery.", int64(rec.Redone))
		emit("rewind_recovery_undone", "Updates compensated during the last recovery's undo phase.", int64(rec.Undone))
		emit("rewind_recovery_losers_aborted", "Transactions rolled back by the last recovery.", int64(rec.LosersAborted))
		emit("rewind_recovery_winners", "Committed transactions found finished by the last recovery.", int64(rec.Winners))

		ai := s.ArenaInfo()
		emit("rewind_arena_size_bytes", "Current arena size (grows on demand up to the cap).", int64(ai.Size))
		emit("rewind_arena_max_bytes", "Arena growth cap; equals size when growth is disabled.", int64(ai.MaxSize))
		emit("rewind_arena_grows_total", "Arena growth events this session.", int64(ai.Grows))
		emit("rewind_arena_segments", "Heap segments (base plus durable extents).", int64(ai.Segments))
		emit("rewind_arena_heap_used_bytes", "Heap bump high-water mark.", int64(ai.HeapUsed))
		emit("rewind_arena_heap_live_bytes", "Bytes in currently allocated heap blocks.", int64(ai.HeapLive))
		emit("rewind_arena_punched_bytes_total", "Bytes hole-punched back to the OS this session.", int64(ai.PunchedBytes))
		emit("rewind_arena_allocated_bytes", "Backing file's actual on-disk footprint (arena size when heap-backed).", ai.AllocatedBytes)
	})
}
