package fleet

import (
	"context"
	"sync"
	"time"

	"repro/internal/serve"
)

// WorkerState classifies what the registry last learned about a worker.
type WorkerState string

const (
	// WorkerHealthy: answering heartbeats, all durability stores intact.
	WorkerHealthy WorkerState = "healthy"
	// WorkerDegraded: answering, but some durability store has failed
	// over to memory — still dispatchable (results are re-derivable),
	// deprioritised below healthy peers.
	WorkerDegraded WorkerState = "degraded"
	// WorkerDraining: answered 503/draining; no new shards go there.
	WorkerDraining WorkerState = "draining"
	// WorkerDead: missed deadFailures consecutive heartbeats; shards
	// assigned there get reassigned. Dead workers keep being probed (with
	// backoff) and rejoin on the first successful heartbeat.
	WorkerDead WorkerState = "dead"
)

// usable reports whether a worker in state s takes shards.
func (s WorkerState) usable() bool { return s == WorkerHealthy || s == WorkerDegraded }

// deadFailures is how many consecutive heartbeat failures turn a worker
// dead. One lost datagram's worth of tolerance, not more: shards blocked
// on a dead worker are stalled work.
const deadFailures = 2

// probeBackoffMax caps the dead-worker probe backoff in heartbeat
// intervals: a long-dead worker is probed every 8th tick rather than
// hammered every tick while it restarts.
const probeBackoffMax = 8

// Worker is one registry entry: a worker mcservd and the state the
// heartbeat loop last observed on it.
type Worker struct {
	// URL is the worker's service root; it doubles as its identity.
	URL string
	// Client is the /v1 API client used for heartbeats and dispatch.
	Client *serve.Client

	mu       sync.Mutex
	status   WorkerStatus // what the last heartbeat saw, plus inflight
	failures int          // consecutive heartbeat failures
	skip     int          // probe-backoff ticks left while dead
}

// WorkerStatus is the serialisable registry view of one worker.
type WorkerStatus struct {
	URL       string      `json:"url"`
	State     WorkerState `json:"state"`
	Version   string      `json:"version,omitempty"`
	GoVersion string      `json:"goVersion,omitempty"`
	Depth     int         `json:"depth"`    // summed shard-queue depth from /v1/stats
	Capacity  int         `json:"capacity"` // summed shard-queue capacity
	Executed  uint64      `json:"executed"`
	Inflight  int         `json:"inflight"` // shards this coordinator has running there
	Error     string      `json:"error,omitempty"`
}

// Registry tracks the worker pool: it heartbeats every worker on a
// fixed cadence via GET /v1/healthz (state, durability, build identity)
// and GET /v1/stats (queue depths, reported in the fleet stats).
type Registry struct {
	workers   []*Worker // fixed after construction; per-worker state has its own lock
	heartbeat time.Duration
	pickMu    sync.Mutex // makes Pick's choice and reservation one step

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newRegistry builds a registry over the given worker base URLs.
// Workers start dead — the first heartbeat round promotes the live
// ones, so nothing dispatches to a worker that was never seen.
func newRegistry(urls []string, heartbeat time.Duration) *Registry {
	r := &Registry{heartbeat: heartbeat, stop: make(chan struct{})}
	for _, u := range urls {
		r.workers = append(r.workers, &Worker{
			URL:    u,
			Client: serve.NewClient(u),
			status: WorkerStatus{URL: u, State: WorkerDead},
		})
	}
	return r
}

// Start launches the heartbeat loop. Stop joins it.
func (r *Registry) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		// An immediate first round, so a coordinator that starts after its
		// workers can dispatch without waiting out a full interval.
		r.beatAll()
		tick := time.NewTicker(r.heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.beatAll()
			}
		}
	}()
}

// Stop ends the heartbeat loop and waits for it. It is idempotent.
func (r *Registry) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// beatAll probes every worker once, honouring dead-worker backoff.
func (r *Registry) beatAll() {
	for _, w := range r.workers {
		w.mu.Lock()
		skip := w.status.State == WorkerDead && w.skip > 0
		if skip {
			w.skip--
		}
		w.mu.Unlock()
		if !skip {
			r.beat(w)
		}
	}
}

// beat probes one worker: healthz classifies it, stats (best-effort)
// updates its queue occupancy. All network I/O happens before the
// worker lock is taken.
func (r *Registry) beat(w *Worker) {
	ctx, cancel := context.WithTimeout(context.Background(), r.heartbeat)
	defer cancel()
	h, err := w.Client.Health(ctx)
	var st *serve.Stats
	if err == nil {
		// A stats failure alone does not kill the worker — healthz just
		// answered; the beat simply keeps the previous occupancy numbers.
		st, _ = w.Client.Stats(ctx)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.failures++
		w.status.Error = err.Error()
		if w.failures >= deadFailures && w.status.State != WorkerDead {
			w.status.State = WorkerDead
			w.skip = 0
		} else if w.status.State == WorkerDead {
			// Exponential probe backoff while it stays dead, capped at
			// probeBackoffMax ticks. Workers start in the dead state, so
			// failures can still be below the threshold here.
			backoff := 1
			for i := deadFailures; i < w.failures && backoff < probeBackoffMax; i++ {
				backoff *= 2
			}
			w.skip = min(backoff, probeBackoffMax) - 1
		}
		return
	}
	w.failures = 0
	w.skip = 0
	w.status.Error = ""
	w.status.Version, w.status.GoVersion = h.Version, h.GoVersion
	switch {
	case h.Status == "draining":
		w.status.State = WorkerDraining
	case h.Degraded():
		w.status.State = WorkerDegraded
	default:
		w.status.State = WorkerHealthy
	}
	if st != nil {
		w.status.Depth, w.status.Capacity = 0, 0
		for _, sh := range st.Shards {
			w.status.Depth += sh.Depth
			w.status.Capacity += sh.Capacity
		}
		w.status.Executed = st.Jobs.Executed
	}
}

// Pick selects the dispatch target for a shard: the healthy worker with
// the fewest coordinator-inflight shards, falling back to degraded
// workers when no healthy one is available, skipping URLs in exclude.
// It reserves a slot on the returned worker (undo with Release). Nil
// means no worker is currently usable.
func (r *Registry) Pick(exclude map[string]bool) *Worker {
	// Serialized, so concurrent shards of one job see each other's
	// reservations instead of all choosing the same least-loaded worker.
	r.pickMu.Lock()
	defer r.pickMu.Unlock()
	var best *Worker
	var bestStatus WorkerStatus
	for _, w := range r.workers {
		w.mu.Lock()
		ws := w.status
		w.mu.Unlock()
		if exclude[w.URL] || !ws.State.usable() {
			continue
		}
		// Healthy ranks before degraded; within a rank, least inflight.
		if best == nil || (ws.State == WorkerHealthy && bestStatus.State == WorkerDegraded) ||
			(ws.State == bestStatus.State && ws.Inflight < bestStatus.Inflight) {
			best, bestStatus = w, ws
		}
	}
	if best != nil {
		best.mu.Lock()
		best.status.Inflight++
		best.mu.Unlock()
	}
	return best
}

// Release returns a slot reserved by Pick.
func (r *Registry) Release(w *Worker) {
	w.mu.Lock()
	if w.status.Inflight > 0 {
		w.status.Inflight--
	}
	w.mu.Unlock()
}

// Usable reports how many workers are currently dispatchable.
func (r *Registry) Usable() int {
	n := 0
	for _, w := range r.workers {
		w.mu.Lock()
		if w.status.State.usable() {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

// Snapshot returns the serialisable registry state in construction
// order (stable across calls, so /v1/fleet output is diffable).
func (r *Registry) Snapshot() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(r.workers))
	for _, w := range r.workers {
		w.mu.Lock()
		out = append(out, w.status)
		w.mu.Unlock()
	}
	return out
}
