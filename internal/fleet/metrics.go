package fleet

import (
	"io"

	"repro/internal/obs"
	"repro/internal/serve"
)

// JobCounters are the coordinator's logical-job admission and
// completion totals.
type JobCounters struct {
	Submitted        uint64 `json:"submitted"`
	Coalesced        uint64 `json:"coalesced"`
	Cached           uint64 `json:"cached"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Recovered        uint64 `json:"recovered"`
	RejectedBusy     uint64 `json:"rejected_busy"`
	RejectedDraining uint64 `json:"rejected_draining"`
}

// ShardCounters are the coordinator's shard dispatch totals.
type ShardCounters struct {
	Dispatched uint64 `json:"dispatched"`
	Reassigned uint64 `json:"reassigned"`
}

// Stats is the fleet-wide GET /v1/stats reply: the coordinator's own
// totals plus the last-observed state of every worker — the federated
// view a dashboard needs without scraping each worker separately.
type Stats struct {
	Draining      bool           `json:"draining"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Jobs          JobCounters    `json:"jobs"`
	Shards        ShardCounters  `json:"shards"`
	ActiveJobs    int            `json:"active_jobs"`
	QueueHeadroom int            `json:"queue_headroom"`
	WorkersUsable int            `json:"workers_usable"`
	Workers       []WorkerStatus `json:"workers"`
}

// Stats snapshots the coordinator: the scheduler's admission and
// completion totals in the fleet's wire shape, plus dispatch counters
// and the worker pool.
func (c *Coordinator) Stats() Stats {
	st := c.Scheduler.Stats()
	workers := c.registry.Snapshot()
	usable, headroom := 0, 0
	for _, w := range workers {
		if w.State.usable() {
			usable++
			headroom += w.Capacity - w.Depth - w.Inflight
		}
	}
	return Stats{
		Draining:      st.Draining,
		UptimeSeconds: st.UptimeSeconds,
		Jobs: JobCounters{
			Submitted:        st.Jobs.Submitted - st.Jobs.Coalesced - st.Jobs.Cached,
			Coalesced:        st.Jobs.Coalesced,
			Cached:           st.Jobs.Cached,
			Completed:        st.Jobs.Executed - st.Jobs.Failed,
			Failed:           st.Jobs.Failed,
			Recovered:        st.Durability.RecoveredJobs,
			RejectedBusy:     st.Jobs.RejectedQueueFull,
			RejectedDraining: st.Jobs.RejectedDraining,
		},
		Shards: ShardCounters{
			Dispatched: c.dispatched.Load(),
			Reassigned: c.reassigned.Load(),
		},
		ActiveJobs:    int(c.active.Load()),
		QueueHeadroom: headroom,
		WorkersUsable: usable,
		Workers:       workers,
	}
}

// WriteMetrics renders the coordinator's GET /metrics surface in
// Prometheus text exposition format: the scheduler's own exposition
// (serve.WriteMetrics of sched — jobs, cache, journal, storage and
// latency, under the same names a single node serves), then the mc_fleet_
// series only the coordinator knows. Per-worker state is federated into
// labelled series (one series per worker URL), so one scrape of the
// coordinator covers the whole fleet's queue occupancy and liveness. The
// output passes obs.LintProm, which CI enforces.
func WriteMetrics(w io.Writer, sched serve.Stats, st Stats) error {
	if err := serve.WriteMetrics(w, sched); err != nil {
		return err
	}
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

	counter("mc_fleet_shards_dispatched_total", "Shard dispatch attempts sent to workers.", st.Shards.Dispatched)
	counter("mc_fleet_shards_reassigned_total", "Shards re-dispatched after losing their worker.", st.Shards.Reassigned)

	gauge("mc_fleet_active_jobs", "Logical jobs currently dispatching.", float64(st.ActiveJobs))
	gauge("mc_fleet_queue_headroom", "Aggregate free queue slots across usable workers.", float64(st.QueueHeadroom))
	gauge("mc_fleet_workers_usable", "Workers currently accepting shards.", float64(st.WorkersUsable))
	gauge("mc_fleet_workers", "Configured workers.", float64(len(st.Workers)))

	for _, f := range []struct {
		name, typ, help string
		value           func(WorkerStatus) float64
	}{
		{"mc_fleet_worker_up", "gauge", "1 while the worker answers heartbeats (healthy or degraded).",
			func(ws WorkerStatus) float64 { return b(ws.State.usable()) }},
		{"mc_fleet_worker_queue_depth", "gauge", "Worker-reported jobs waiting across its shard queues.",
			func(ws WorkerStatus) float64 { return float64(ws.Depth) }},
		{"mc_fleet_worker_queue_capacity", "gauge", "Worker-reported aggregate shard-queue capacity.",
			func(ws WorkerStatus) float64 { return float64(ws.Capacity) }},
		{"mc_fleet_worker_executed_total", "counter", "Worker-reported jobs executed since its start.",
			func(ws WorkerStatus) float64 { return float64(ws.Executed) }},
		{"mc_fleet_worker_inflight", "gauge", "Shards this coordinator currently has running on the worker.",
			func(ws WorkerStatus) float64 { return float64(ws.Inflight) }},
		{"mc_fleet_worker_state", "gauge", "Worker state as an enum: 0 dead, 1 draining, 2 degraded, 3 healthy.",
			func(ws WorkerStatus) float64 { return stateEnum[ws.State] }},
	} {
		// Per-worker state is federated into one labelled series per
		// worker URL.
		p.Family(f.name, f.typ, f.help)
		for _, ws := range st.Workers {
			p.Sample(f.name, []obs.Label{{Name: "worker", Value: ws.URL}}, f.value(ws))
		}
	}

	if err := p.Err(); err != nil {
		return err
	}
	return p.Flush()
}

// stateEnum encodes WorkerState for the mc_fleet_worker_state gauge;
// dead is the zero value.
var stateEnum = map[WorkerState]float64{WorkerDraining: 1, WorkerDegraded: 2, WorkerHealthy: 3}
