package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/fsio"
)

// ErrBusy (HTTP 429 + Retry-After: the job queue is full) and
// ErrDraining (503: shutting down) are the scheduler's errors — a
// coordinator admits through serve's bounded queues.
var ErrBusy, ErrDraining = serve.ErrQueueFull, serve.ErrDraining

// Config parameterises a coordinator.
type Config struct {
	// Workers are the worker mcservd base URLs.
	Workers []string
	// ShardsPerJob is the target shard count per logical job
	// (default 2×len(Workers): enough slack that a reassigned shard does
	// not serialise the whole job behind one worker).
	ShardsPerJob int
	// AssignRetries bounds how many distinct dispatch attempts one shard
	// gets before the logical job fails (default 3).
	AssignRetries int
	// ShardWait bounds one shard dispatch end to end, including the
	// blocking wait on the worker (default 10m).
	ShardWait time.Duration
	// Heartbeat is the registry probe cadence (default 1s).
	Heartbeat time.Duration
	// MaxJobs bounds concurrently running logical jobs (default 4).
	MaxJobs int
	// CacheEntries bounds the in-memory result cache (default 256).
	CacheEntries int
	// SpoolDir, if non-empty, persists shard and merged results — the
	// store that makes coordinator recovery cheap (finished shards are
	// found, not re-run).
	SpoolDir string
	// JournalPath, if non-empty, enables the write-ahead job journal:
	// logical jobs are journaled at admission and replayed on restart.
	JournalPath string
	// FS is the filesystem seam under spool and journal (default: the
	// real filesystem). Tests inject faults here.
	FS fsio.FS
	// Logger, if non-nil, receives structured coordinator logs.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ShardsPerJob < 1 {
		c.ShardsPerJob = max(1, 2*len(c.Workers))
	}
	if c.AssignRetries < 1 {
		c.AssignRetries = 3
	}
	if c.ShardWait <= 0 {
		c.ShardWait = 10 * time.Minute
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4
	}
	return c
}

// ShardState is one shard's dispatch lifecycle.
type ShardState string

const (
	ShardPending ShardState = "pending"
	ShardRunning ShardState = "running"
	ShardDone    ShardState = "done"
	ShardFailed  ShardState = "failed"
)

// ShardStatus is the serialisable dispatch state of one shard.
type ShardStatus struct {
	Index    int          `json:"index"`
	Digest   serve.Digest `json:"digest"`
	State    ShardState   `json:"state"`
	Worker   string       `json:"worker,omitempty"`   // the worker it last ran on
	Attempts int          `json:"attempts,omitempty"` // dispatches (1 + reassignments)
	Cached   bool         `json:"cached,omitempty"`   // adopted from the coordinator spool
	QueuedMs int64        `json:"queuedMs,omitempty"` // worker-reported, successful attempt
	RunMs    int64        `json:"runMs,omitempty"`    // worker-reported, successful attempt
	Error    string       `json:"error,omitempty"`
}

// shardRun is the mutable dispatch record of one planned shard: its
// wire view plus what only the executor and the trace need. Guarded by
// its run's mu.
type shardRun struct {
	ShardStatus
	spec       *serve.JobSpec
	result     json.RawMessage
	start, end time.Time // dispatch window on the coordinator's clock
}

// run is one execution of a logical job by the coordinator's executor:
// its plan, the scheduler record it executes for, and the dispatch state
// of every shard.
type run struct {
	plan *Plan
	job  *serve.Job      // the record that ran, kept when a cache hit later replaces it
	tail *serve.LineTail // this job's shard lifecycle events, NDJSON

	mu     sync.Mutex
	shards []*shardRun
}

// JobView is the fleet GET /v1/jobs/{id} reply: the serve job record
// (so serve.Client works against a coordinator unchanged) plus the
// per-shard dispatch table.
type JobView struct {
	serve.JobStatus
	Shards []ShardStatus `json:"shards,omitempty"`
}

// snapshot copies the shard records.
func (r *run) snapshot() []shardRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]shardRun, len(r.shards))
	for i, sr := range r.shards {
		out[i] = *sr
	}
	return out
}

// Coordinator is a serve.Scheduler whose Runner plans a logical job,
// dispatches its shards to a registry of workers, and merges their
// results. Admission, coalescing, the result cache, the journal and its
// recovery, drain and health are the scheduler's; the coordinator adds
// the planner, the registry and the executor.
type Coordinator struct {
	*serve.Scheduler
	cfg      Config
	registry *Registry
	tail     *serve.LineTail // fleet event NDJSON lines (/v1/fleet/events)
	started  chan struct{}   // closed by Start; the executor dispatches after it

	mu    sync.Mutex
	runs  map[serve.Digest]*run // per-job shard views, pruned to the scheduler's records
	order []serve.Digest        // runs in start order, for stable listing

	active     atomic.Int64
	dispatched atomic.Uint64
	reassigned atomic.Uint64
}

// fleetTailCapacity bounds the fleet event tail; shard lifecycle events
// are far sparser than protocol events, so a small tail covers hours.
const fleetTailCapacity = 4096

// NewCoordinator builds a coordinator. Its scheduler replays any
// logical jobs the journal holds as accepted but unfinished; they start
// dispatching once Start has started the registry, and shards whose
// results are already in the spool are merged without re-running.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	c := &Coordinator{
		cfg:      cfg,
		registry: newRegistry(cfg.Workers, cfg.Heartbeat),
		tail:     serve.NewLineTail(fleetTailCapacity),
		started:  make(chan struct{}),
		runs:     make(map[serve.Digest]*run),
	}
	sched, err := serve.NewScheduler(serve.Config{
		// One shard per concurrent logical job: the scheduler's bounded
		// queues are the coordinator's only admission policy.
		Shards:       cfg.MaxJobs,
		JobTimeout:   -1, // shards are bounded by ShardWait, not the job
		CacheEntries: cfg.CacheEntries,
		SpoolDir:     cfg.SpoolDir,
		JournalPath:  cfg.JournalPath,
		FS:           cfg.FS,
		Runner:       c.execute,
		EventRing:    1, // the executor emits no protocol events: the minimum ring
		Logger:       cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	c.Scheduler = sched
	return c, nil
}

// Start launches the registry heartbeats and releases dispatch,
// including for jobs recovered from the journal.
func (c *Coordinator) Start() {
	c.registry.Start()
	close(c.started)
}

// Stop aborts immediately: in-flight dispatch is cancelled, the journal
// keeps aborted jobs pending for the next start, and the heartbeats end.
func (c *Coordinator) Stop() {
	c.Scheduler.Stop()
	c.registry.Stop()
}

// event renders one fleet lifecycle event into the coordinator-wide
// NDJSON tail and into the job's own tail, the stream
// /v1/jobs/{id}/events serves.
func (c *Coordinator) event(r *run, kind string, kv ...any) {
	line := map[string]any{"kind": kind, "job": r.plan.Digest.Short()}
	for i := 0; i+1 < len(kv); i += 2 {
		line[kv[i].(string)] = kv[i+1]
	}
	b, err := json.Marshal(line) // sorted keys: the line is order-independent
	if err != nil {
		return
	}
	c.tail.Append(b)
	r.tail.Append(b)
}

// track records a run's shard view and drops the views of jobs the
// scheduler no longer tracks, so the views share its record bound. The
// run's own job is tracked: the scheduler records a job before any
// runner can see it.
func (c *Coordinator) track(r *run) {
	d := r.plan.Digest
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.runs[d]; !ok {
		c.order = append(c.order, d)
	}
	c.runs[d] = r
	kept := c.order[:0]
	for _, od := range c.order {
		if c.Tracked(od) {
			kept = append(kept, od)
		} else {
			delete(c.runs, od)
		}
	}
	c.order = kept
}

// lookup returns the shard view of the latest run of d, if still held.
func (c *Coordinator) lookup(d serve.Digest) *run {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[d]
}

// View renders a job record in the fleet wire shape: its status plus
// the shard table of the run that produced it.
func (c *Coordinator) View(j *serve.Job) JobView {
	v := JobView{JobStatus: j.Status()}
	if r := c.lookup(j.Digest()); r != nil {
		for _, sr := range r.snapshot() {
			v.Shards = append(v.Shards, sr.ShardStatus)
		}
	}
	return v
}

// execute is the coordinator's serve.Runner: plan the logical job,
// adopt shard results already in the spool, dispatch the rest to
// workers concurrently and merge. A shutdown cancels ctx; the scheduler
// then keeps the job pending in its journal for the next start.
func (c *Coordinator) execute(ctx context.Context, spec *serve.JobSpec, _ serve.ExecOptions) (json.RawMessage, error) {
	select {
	case <-c.started:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	plan, err := NewPlan(spec, c.cfg.ShardsPerJob)
	if err != nil {
		return nil, err
	}
	job, _ := c.Job(plan.Digest) // in flight, so the record is held
	r := &run{plan: plan, job: job, tail: serve.NewLineTail(fleetTailCapacity)}
	spooled := 0
	for _, sh := range plan.Shards {
		sr := &shardRun{ShardStatus: ShardStatus{Index: sh.Index, Digest: sh.Digest, State: ShardPending}, spec: sh.Spec}
		if e, ok := c.Cache().Get(sh.Digest); ok {
			sr.State, sr.result, sr.Cached = ShardDone, e.Result, true
			spooled++
		}
		r.shards = append(r.shards, sr)
	}
	c.track(r)
	c.active.Add(1)
	defer c.active.Add(-1)
	c.event(r, "job-started", "kind", spec.Kind, "shards", len(plan.Shards), "spooled", spooled)

	var wg sync.WaitGroup
	for _, sr := range r.shards {
		if sr.State == ShardDone {
			continue
		}
		wg.Add(1)
		go func(sr *shardRun) {
			defer wg.Done()
			c.runShard(ctx, r, sr)
		}(sr)
	}
	wg.Wait()

	// Merge exactly one result per shard index — a reassigned shard that
	// raced two workers still contributes a single entry, and equal
	// digests guarantee equal bytes whichever worker's reply landed.
	results := make([]json.RawMessage, len(r.shards))
	r.mu.Lock()
	for i, sr := range r.shards {
		if sr.State != ShardDone {
			err = fmt.Errorf("shard %d: %s", sr.Index, sr.Error)
			break
		}
		results[i] = sr.result
	}
	r.mu.Unlock()
	var merged json.RawMessage
	if err == nil {
		merged, err = plan.Merge(results)
	}
	switch {
	case err == nil:
		c.event(r, "job-done")
	case ctx.Err() != nil:
		c.event(r, "job-aborted", "error", err.Error())
	default:
		c.event(r, "job-failed", "error", err.Error())
	}
	return merged, err
}

// runShard dispatches one shard, records the outcome and spools a
// result under the shard digest, where a later run of the job — after
// a restart or a failure — adopts it instead of dispatching again.
func (c *Coordinator) runShard(ctx context.Context, r *run, sr *shardRun) {
	r.mu.Lock()
	sr.State = ShardRunning
	//lint:allow determinism -- shard lifecycle timestamps; not simulation state
	sr.start = time.Now()
	r.mu.Unlock()
	resp, err := c.dispatch(ctx, r, sr)
	var result json.RawMessage
	if err == nil {
		// Workers indent their HTTP responses; compact the shard result so
		// single-shard passthrough and cache entries are byte-identical to
		// what a single-node runner produces.
		result, err = json.Marshal(resp.Status.Result)
	}
	r.mu.Lock()
	//lint:allow determinism -- shard lifecycle timestamps; not simulation state
	sr.end = time.Now()
	if err != nil {
		sr.State, sr.Error = ShardFailed, err.Error()
	} else {
		sr.State, sr.result = ShardDone, result
		sr.QueuedMs, sr.RunMs = resp.Status.QueuedMs, resp.Status.RunMs
	}
	r.mu.Unlock()
	if err != nil {
		c.event(r, "shard-failed", "shard", sr.Index, "error", err.Error())
		return
	}
	// A single-shard plan's shard is the logical job itself, which the
	// scheduler caches once the executor returns.
	if sr.Digest != r.plan.Digest {
		if canonical, _, err := sr.spec.Canonical(); err == nil {
			c.Cache().Put(sr.Digest, serve.Entry{Spec: canonical, Result: result})
		}
	}
	c.event(r, "shard-done", "shard", sr.Index, "worker", sr.Worker, "runMs", sr.RunMs)
}

// dispatch sends one shard to workers until one returns it done, it
// fails deterministically, or the reassignment budget is spent. Worker
// loss (transport error, timeout, death mid-wait) reassigns to the
// next-best worker; a job failure on the worker fails the shard
// outright — the same spec would fail anywhere. A worker's 429 is
// waited out without spending the budget: the coordinator's own bounded
// queue is what pushes back on clients. ShardWait bounds it all.
func (c *Coordinator) dispatch(ctx context.Context, r *run, sr *shardRun) (*serve.SubmitResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardWait)
	defer cancel()
	pause := func(d time.Duration, why string) error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", why, ctx.Err())
		case <-time.After(d):
			return nil
		}
	}
	tried := make(map[string]bool)
	lastErr := errors.New("no dispatch attempt succeeded")
	for attempt := 0; attempt < c.cfg.AssignRetries; {
		w := c.registry.Pick(tried)
		if w == nil && len(tried) > 0 {
			// Every untried worker is unusable; forgive earlier transport
			// failures and allow a second pass over recovered workers.
			tried = make(map[string]bool)
			w = c.registry.Pick(tried)
		}
		if w == nil {
			// No usable worker at all: wait out a heartbeat for one to
			// come back rather than burning the attempt budget.
			if err := pause(c.cfg.Heartbeat, "no usable worker"); err != nil {
				return nil, err
			}
			continue
		}

		r.mu.Lock()
		sr.Attempts++
		sr.Worker = w.URL
		r.mu.Unlock()
		kind := "shard-dispatched"
		if attempt > 0 {
			kind = "shard-reassigned"
			c.reassigned.Add(1)
		}
		c.event(r, kind, "shard", sr.Index, "worker", w.URL)
		c.dispatched.Add(1)

		resp, err := w.Client.Submit(ctx, sr.spec, -1)
		c.registry.Release(w)
		var ae *serve.APIError
		if errors.As(err, &ae) && ae.Code == http.StatusTooManyRequests {
			if err := pause(max(ae.RetryAfter, c.cfg.Heartbeat), "worker queue full"); err != nil {
				return nil, err
			}
			continue
		}
		attempt++
		switch {
		case err != nil:
			lastErr = err
			if lg := c.cfg.Logger; lg != nil {
				lg.Warn("fleet shard dispatch failed",
					"job", r.plan.Digest.Short(), "shard", sr.Index, "worker", w.URL, "err", err)
			}
			if ctx.Err() != nil {
				return nil, err
			}
		case resp.Status.State == serve.StateDone:
			return resp, nil
		case resp.Status.State == serve.StateFailed:
			// Deterministic failure: reassignment cannot change a pure
			// function's result.
			return nil, fmt.Errorf("worker %s: %s", w.URL, resp.Status.Error)
		default:
			// The wait returned non-terminal (worker drain or wait budget);
			// another worker can pick the shard up.
			lastErr = fmt.Errorf("worker %s returned non-terminal state %q", w.URL, resp.Status.State)
		}
		tried[w.URL] = true
	}
	return nil, fmt.Errorf("after %d attempts: %w", c.cfg.AssignRetries, lastErr)
}
