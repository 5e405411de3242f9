package fleet

import (
	"errors"
	"net/http"

	"repro/internal/serve"
)

// NewServer wraps a coordinator in the /v1 API. It is the scheduler's
// own serve.Server — submit, healthz, 429/503 and wait semantics
// included — with the routes only a coordinator can answer overridden:
// the job, events and trace views carry the shard table, stats and
// metrics carry the worker pool, and /v1/fleet plus /v1/fleet/events
// expose the pool and the coordinator-wide event stream.
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewServer(c.Scheduler))
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if job, ok := serve.JobFromPath(w, r, c.Scheduler); ok {
			serve.WriteJSON(w, http.StatusOK, c.View(job))
		}
	})
	// One logical job's shard lifecycle events, with the same ?from=N
	// resume contract as a worker's event stream; it ends when the job is
	// terminal and the tail is drained.
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := serve.JobFromPath(w, r, c.Scheduler)
		if !ok {
			return
		}
		var tail *serve.LineTail
		if run := c.lookup(job.Digest()); run != nil {
			tail = run.tail
		}
		serve.StreamTail(w, r, tail, job.Done(), nil)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := serve.JobFromPath(w, r, c.Scheduler)
		if !ok {
			return
		}
		tr, err := c.Trace(job)
		if errors.Is(err, serve.ErrJobRunning) {
			serve.WriteError(w, http.StatusConflict, "fleet: job %s not finished; retry after completion", job.Digest().Short())
			return
		}
		if err != nil {
			serve.WriteError(w, http.StatusInternalServerError, "fleet: build trace: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = tr.Write(w)
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, c.Fleet())
	})
	// Every job's lifecycle interleaved, until the client disconnects.
	mux.HandleFunc("GET /v1/fleet/events", func(w http.ResponseWriter, r *http.Request) {
		serve.StreamTail(w, r, c.tail, nil, nil)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = WriteMetrics(w, c.Scheduler.Stats(), c.Stats())
	})
	return mux
}

// FleetView is the GET /v1/fleet reply: the worker pool and the jobs
// whose shard views the coordinator still holds, oldest run first.
type FleetView struct {
	Workers []WorkerStatus `json:"workers"`
	Jobs    []JobView      `json:"jobs"`
}

// Fleet snapshots the worker pool and the held job views.
func (c *Coordinator) Fleet() FleetView {
	c.mu.Lock()
	order := append([]serve.Digest(nil), c.order...)
	c.mu.Unlock()
	view := FleetView{Workers: c.registry.Snapshot(), Jobs: make([]JobView, 0, len(order))}
	for _, d := range order {
		if job, ok := c.Job(d); ok {
			view.Jobs = append(view.Jobs, c.View(job))
		}
	}
	return view
}
