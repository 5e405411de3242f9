package serve

import (
	"io"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// WriteMetrics renders a stats snapshot in Prometheus text exposition
// format (version 0.0.4) — the GET /metrics surface. Every family
// carries the mc_ prefix; the output is guaranteed to pass
// obs.LintProm, which CI enforces by scraping a live daemon.
func WriteMetrics(w io.Writer, st Stats) error {
	p := obs.NewPromWriter(w)
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	gauge := func(name, help string, v float64) {
		p.Family(name, "gauge", help)
		p.Sample(name, nil, v)
	}
	counter := func(name, help string, v uint64) {
		p.Family(name, "counter", help)
		p.Sample(name, nil, float64(v))
	}

	gauge("mc_uptime_seconds", "Seconds since the scheduler started.", st.UptimeSeconds)
	gauge("mc_draining", "1 while the scheduler refuses new work for shutdown.", b(st.Draining))

	counter("mc_jobs_submitted_total", "Job specs admitted, including cache hits and coalesced duplicates.", st.Jobs.Submitted)
	counter("mc_jobs_coalesced_total", "Submissions merged into an already-running identical job.", st.Jobs.Coalesced)
	counter("mc_jobs_cached_total", "Submissions answered from the result cache.", st.Jobs.Cached)
	counter("mc_jobs_executed_total", "Jobs run to completion by a shard worker.", st.Jobs.Executed)
	counter("mc_jobs_failed_total", "Jobs whose execution failed.", st.Jobs.Failed)
	counter("mc_jobs_rejected_queue_full_total", "Submissions rejected because the digest shard's queue was full.", st.Jobs.RejectedQueueFull)
	counter("mc_jobs_rejected_draining_total", "Submissions rejected during drain.", st.Jobs.RejectedDraining)

	gauge("mc_cache_entries", "Result-cache entries resident in memory.", float64(st.Cache.Entries))
	gauge("mc_cache_capacity", "Result-cache capacity in entries.", float64(st.Cache.Capacity))
	counter("mc_cache_hits_total", "Result-cache hits (memory or spool).", st.Cache.Hits)
	counter("mc_cache_misses_total", "Result-cache misses.", st.Cache.Misses)
	gauge("mc_cache_hit_ratio", "Hits over lookups since start.", st.Cache.HitRatio)
	counter("mc_cache_evictions_total", "Entries evicted from the in-memory cache.", st.Cache.Evictions)
	counter("mc_cache_spool_hits_total", "Misses satisfied from the on-disk spool.", st.Cache.SpoolHits)
	counter("mc_cache_spool_fails_total", "Spool writes that failed.", st.Cache.SpoolFails)
	counter("mc_cache_quarantined_total", "Corrupt spool entries quarantined.", st.Cache.Quarantined)

	p.Family("mc_queue_depth", "gauge", "Jobs waiting in each shard queue.")
	for i, sh := range st.Shards {
		p.Sample("mc_queue_depth", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Depth))
	}
	p.Family("mc_queue_capacity", "gauge", "Per-shard queue capacity.")
	for i, sh := range st.Shards {
		p.Sample("mc_queue_capacity", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Capacity))
	}
	p.Family("mc_shard_executed_total", "counter", "Jobs executed per shard.")
	for i, sh := range st.Shards {
		p.Sample("mc_shard_executed_total", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, float64(sh.Executed))
	}
	p.Family("mc_shard_utilization", "gauge", "Fraction of uptime each shard spent executing.")
	for i, sh := range st.Shards {
		p.Sample("mc_shard_utilization", []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}, sh.Utilization)
	}

	p.Histogram("mc_job_latency_ms", "Job run latency (start to terminal state) in milliseconds.", st.Latency.Histogram)

	gauge("mc_journal_enabled", "1 when a write-ahead job journal is configured.", b(st.Durability.JournalEnabled))
	counter("mc_journal_appends_total", "Records durably appended to the job journal.", st.Durability.JournalAppends)
	p.Family("mc_storage_degraded", "gauge", "1 while a durable store has fallen back to memory-only after an I/O fault.")
	storageDegraded(p, st)
	counter("mc_jobs_recovered_total", "Accepted jobs replayed from the journal after a restart.", st.Durability.RecoveredJobs)
	if st.Durability.FsyncLatencyUs != nil {
		p.Histogram("mc_journal_fsync_latency_us", "Journal fsync latency per append, microseconds.", *st.Durability.FsyncLatencyUs)
	}
	if cs := st.Durability.Checkpoints; cs != nil {
		counter("mc_checkpoints_saved_total", "Sweep checkpoints durably saved.", cs.Saved)
		counter("mc_checkpoints_loaded_total", "Sweep checkpoints restored on resume.", cs.Loaded)
		counter("mc_checkpoints_dropped_total", "Checkpoint writes dropped while degraded.", cs.Dropped)
	}

	counter("mc_ring_overflow_total", "Per-job event rings that dropped at least one event.", st.Events.RingOverflows)
	counter("mc_events_dropped_total", "Events lost to full rings across finished jobs.", st.Events.DroppedEvents)

	counter("mc_sim_bits_total", "Bus bit slots simulated.", st.Sim.BitsSimulated)
	counter("mc_sim_frames_sent_total", "Frames delivered across all simulations.", st.Sim.FramesSent)
	counter("mc_sim_error_flags_primary_total", "Primary error flags raised.", st.Sim.ErrorFlagsPrimary)
	counter("mc_sim_error_flags_secondary_total", "Secondary (echoed) error flags raised.", st.Sim.ErrorFlagsSecondary)
	counter("mc_sim_retransmits_total", "Frame retransmissions.", st.Sim.Retransmits)
	counter("mc_sim_imos_total", "Inconsistent message omissions detected (CAN baseline).", st.Sim.IMOs)
	counter("mc_sim_eof_vote_corrected_total", "EOF majority votes that overruled a local view (MajorCAN).", st.Sim.EOFVoteCorrected)
	counter("mc_sim_bus_offs_total", "Stations that reached bus-off.", st.Sim.BusOffs)
	if len(st.Sim.ErrorFlagsByCause) > 0 {
		p.Family("mc_sim_error_flags_by_cause_total", "counter", "Error flags by detected error kind.")
		causes := make([]string, 0, len(st.Sim.ErrorFlagsByCause))
		for c := range st.Sim.ErrorFlagsByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			p.Sample("mc_sim_error_flags_by_cause_total",
				[]obs.Label{{Name: "cause", Value: c}}, float64(st.Sim.ErrorFlagsByCause[c]))
		}
	}

	if err := p.Err(); err != nil {
		return err
	}
	return p.Flush()
}

// storageDegraded renders the per-store degradation gauge: one series
// per durable store, 1 while that store has fallen back to memory-only.
func storageDegraded(p *obs.PromWriter, st Stats) {
	degraded := func(store string, v bool) {
		val := 0.0
		if v {
			val = 1
		}
		p.Sample("mc_storage_degraded", []obs.Label{{Name: "store", Value: store}}, val)
	}
	degraded("journal", st.Durability.JournalDegraded)
	degraded("spool", st.Cache.SpoolDegraded)
	ck := false
	if st.Durability.Checkpoints != nil {
		ck = st.Durability.Checkpoints.Degraded
	}
	degraded("checkpoint", ck)
}
