package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/fsio"
	"repro/internal/serve/journal"
)

// Scheduler errors surfaced to the API layer.
var (
	// ErrQueueFull reports that the job's shard queue is at capacity
	// (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: shard queue full")
	// ErrDraining reports that the scheduler is shutting down and accepts
	// no new jobs (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Admission classifies what Submit did with a spec.
type Admission int

const (
	// AdmissionNew: the job was enqueued and will run.
	AdmissionNew Admission = iota
	// AdmissionCoalesced: an identical job is already in flight; the
	// caller was attached to it (single-flight).
	AdmissionCoalesced
	// AdmissionCached: the result was already in the content-addressed
	// cache; no simulation will run.
	AdmissionCached
)

// Config parameterises the scheduler.
type Config struct {
	// Shards is the number of worker shards (default 4). Jobs are routed
	// by digest, so identical specs always land on the same shard.
	Shards int
	// QueueDepth bounds each shard's FIFO (default 64); a full queue
	// rejects with ErrQueueFull.
	QueueDepth int
	// JobTimeout bounds one job execution (default 10m; <0 disables).
	JobTimeout time.Duration
	// Parallelism bounds concurrent simulations inside one job
	// (default 1 — cross-job parallelism comes from the shards).
	Parallelism int
	// CacheEntries bounds the in-memory result cache (default 256).
	CacheEntries int
	// SpoolDir, if non-empty, enables the on-disk result spool.
	SpoolDir string
	// JournalPath, if non-empty, enables the write-ahead job journal: an
	// accept record is fsync'd before Submit returns, and on startup every
	// accepted job with no terminal record is replayed.
	JournalPath string
	// CheckpointDir, if non-empty, enables batch-boundary checkpoints for
	// long-running jobs, letting a replayed job resume instead of restart.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in work units — sweep
	// points or campaign trials per save (default 8).
	CheckpointEvery int
	// FS is the filesystem seam under the spool, journal and checkpoint
	// stores (default: the real filesystem). Tests inject faults here.
	FS fsio.FS
	// ServiceEvents, if non-nil, receives service-level durability events:
	// storage degradation and journal recovery. Distinct from per-job
	// protocol event rings.
	ServiceEvents obs.Sink
	// Runner executes jobs (default Execute). Tests substitute stubs.
	Runner Runner
	// Metrics, if non-nil, is the shared simulation-metrics registry;
	// each job runs against a fork of it. Created when nil.
	Metrics *obs.Metrics
	// EventRing sizes each job's live protocol-event ring (default 4096).
	EventRing int
	// CaptureEvents bounds each job's archived event prefix, the stream
	// the trace endpoint synthesises spans from (default 65536; the
	// capture keeps the prefix and counts what it let go).
	CaptureEvents int
	// Logger, if non-nil, receives structured service logs (job
	// lifecycle, storage degradation, telemetry loss). Nil disables
	// logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 256
	}
	if c.Runner == nil {
		c.Runner = Execute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.EventRing < 1 {
		c.EventRing = 4096
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 8
	}
	if c.CaptureEvents < 1 {
		c.CaptureEvents = 65536
	}
	return c
}

// Job is one tracked submission: spec, lifecycle state, result and the
// live telemetry attachments. All mutable fields are guarded by mu; Done
// is closed exactly once when the job leaves the running state.
type Job struct {
	digest    Digest
	spec      *JobSpec
	canonical []byte

	ring    *obs.Ring       // live protocol events (lossy when unread)
	capture *obs.Capture    // archived event prefix for trace export
	events  *obs.LockedSink // producer-side adapter feeding ring + capture
	metrics *obs.Metrics    // fork of the scheduler registry
	done    chan struct{}

	streamMu chan struct{} // capacity-1 try-lock for the events streamer
	tail     *LineTail     // rendered NDJSON lines, for ?from= reconnects

	mu        sync.Mutex
	phases    []jobPhase
	state     State
	shard     int
	cached    bool
	recovered bool // replayed from the journal after a restart
	coalesced uint64
	result    json.RawMessage
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// jobPhase is one wall-clock service phase of a job's life (a journal
// append, the execution attempt, a checkpoint save, the cache put),
// recorded as it happens and rendered as a service-track span by the
// trace endpoint.
type jobPhase struct {
	name       string
	start, end time.Time
}

// addPhase records one completed phase.
func (j *Job) addPhase(name string, start, end time.Time) {
	j.mu.Lock()
	j.phases = append(j.phases, jobPhase{name: name, start: start, end: end})
	j.mu.Unlock()
}

// Digest returns the job's content address.
func (j *Job) Digest() Digest { return j.digest }

// Spec returns the normalized job spec.
func (j *Job) Spec() *JobSpec { return j.spec }

// Done is closed when the job reaches a terminal state. Cached jobs are
// born terminal.
func (j *Job) Done() <-chan struct{} { return j.done }

// Times returns the job's submission, start and completion wall times;
// zero for phases it has not reached, and all zero for a record
// synthesized from the cache.
func (j *Job) Times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

// JobStatus is the serialisable job record served by the API.
type JobStatus struct {
	ID            Digest          `json:"id"`
	Kind          Kind            `json:"kind"`
	State         State           `json:"state"`
	Shard         int             `json:"shard"`
	Cached        bool            `json:"cached,omitempty"`
	Recovered     bool            `json:"recovered,omitempty"`
	Coalesced     uint64          `json:"coalesced,omitempty"`
	QueuedMs      int64           `json:"queuedMs,omitempty"`
	RunMs         int64           `json:"runMs,omitempty"`
	EventsDropped uint64          `json:"eventsDropped,omitempty"`
	Error         string          `json:"error,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:        j.digest,
		Kind:      j.spec.Kind,
		State:     j.state,
		Shard:     j.shard,
		Cached:    j.cached,
		Recovered: j.recovered,
		Coalesced: j.coalesced,
		Error:     j.errMsg,
		Result:    j.result,
	}
	if !j.started.IsZero() && !j.submitted.IsZero() {
		s.QueuedMs = j.started.Sub(j.submitted).Milliseconds()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		s.RunMs = j.finished.Sub(j.started).Milliseconds()
	}
	if j.ring != nil {
		s.EventsDropped = j.ring.Dropped()
	}
	return s
}

type shard struct {
	ch       chan *Job
	executed atomic.Uint64
	busyMs   atomic.Uint64
}

// Scheduler owns the worker shards, the in-flight single-flight table
// and the content-addressed result cache.
type Scheduler struct {
	cfg     Config
	cache   *Cache
	ckpt    *fileStore       // nil when checkpointing is disabled
	jnl     *journal.Journal // nil when journaling is disabled
	metrics *obs.Metrics
	latency *obs.Histogram // job run latency, milliseconds
	shards  []*shard

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
	jnlClose   sync.Once
	start      time.Time

	// admit serializes admission and the drain transition: Submit holds
	// it across the write-ahead accept append (an fsync) and the shard
	// enqueue, and Drain holds it while flipping draining and closing the
	// shard channels, so no send can race a close. Keeping that span off
	// mu means readers (Job, Stats, the event streams) never wait on a
	// disk flush. Lock order: admit before mu, never the reverse.
	admit sync.Mutex

	mu        sync.Mutex
	draining  bool
	inflight  map[Digest]*Job
	records   map[Digest]*Job
	recordLog []Digest // completion order, for bounded record eviction

	recoveredJobs    atomic.Uint64
	submitted        atomic.Uint64
	coalescedTotal   atomic.Uint64
	cachedTotal      atomic.Uint64
	executed         atomic.Uint64
	failed           atomic.Uint64
	rejectedFull     atomic.Uint64
	rejectedDraining atomic.Uint64
	ringOverflows    atomic.Uint64 // job rings that dropped at least one event
	droppedEvents    atomic.Uint64 // events lost to full rings (finished jobs)
}

// logger returns the configured structured logger, or nil.
func (s *Scheduler) logger() *slog.Logger { return s.cfg.Logger }

func (s *Scheduler) logInfo(msg string, args ...any) {
	if lg := s.logger(); lg != nil {
		lg.Info(msg, args...)
	}
}

func (s *Scheduler) logWarn(msg string, args ...any) {
	if lg := s.logger(); lg != nil {
		lg.Warn(msg, args...)
	}
}

// latencyBoundsMs buckets job run latency from sub-millisecond cache
// misses on tiny scripts up to multi-minute verification sweeps.
var latencyBoundsMs = []uint64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000, 120000, 600000}

// NewScheduler creates the scheduler, starts its worker shards, and —
// when a journal is configured — replays every accepted-but-unfinished
// job found at startup through the shards, so a crashed service resumes
// its obligations before taking new ones.
func NewScheduler(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		latency:  obs.NewHistogram(latencyBoundsMs),
		inflight: make(map[Digest]*Job),
		records:  make(map[Digest]*Job),
	}
	spool, err := newFileStore(cfg.FS, cfg.SpoolDir, ".json", s.degradeHook(obs.StoreSpool))
	if err != nil {
		return nil, err
	}
	s.cache = newCache(cfg.CacheEntries, spool)
	if s.ckpt, err = newFileStore(cfg.FS, cfg.CheckpointDir, ".ckpt.json", s.degradeHook(obs.StoreCheckpoint)); err != nil {
		return nil, err
	}
	var pendingJobs []journal.Record
	if cfg.JournalPath != "" {
		jnl, info, err := journal.Open(cfg.FS, cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("serve: journal: %w", err)
		}
		s.jnl = jnl
		pendingJobs = info.Pending
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	//lint:allow determinism -- serving-layer uptime clock; not simulation state
	s.start = time.Now()
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{ch: make(chan *Job, cfg.QueueDepth)}
		s.wg.Add(1)
		go s.worker(i)
	}
	// Replay after the workers are live: recovery enqueues block (never
	// reject) when they outnumber the queue depth, and the running workers
	// drain them.
	for _, rec := range pendingJobs {
		s.recoverJob(rec)
	}
	if n := len(pendingJobs); n > 0 {
		s.serviceEvent(obs.KindJournalRecovered, uint32(n))
	}
	return s, nil
}

// serviceEvent emits one durability event on the service-level sink and
// mirrors it to the structured log. Station -1 marks it as service-
// rather than station-scoped.
func (s *Scheduler) serviceEvent(kind obs.Kind, aux uint32) {
	if s.cfg.ServiceEvents != nil {
		s.cfg.ServiceEvents.Emit(obs.Event{
			Kind:    kind,
			Slot:    0,
			Station: -1,
			Aux:     aux,
		})
	}
	switch kind {
	case obs.KindStorageDegraded:
		s.logWarn("durable store degraded to memory-only", "store", storeName(aux))
	case obs.KindJournalRecovered:
		s.logInfo("journal recovery replayed unfinished jobs", "jobs", aux)
	}
}

// degradeHook is a file store's one-shot degrade callback: a
// storage-degraded service event naming the store.
func (s *Scheduler) degradeHook(store uint32) func() {
	return func() { s.serviceEvent(obs.KindStorageDegraded, store) }
}

// storeName renders a KindStorageDegraded store code for logs.
func storeName(code uint32) string {
	switch code {
	case obs.StoreJournal:
		return "journal"
	case obs.StoreSpool:
		return "spool"
	case obs.StoreCheckpoint:
		return "checkpoint"
	default:
		return "unknown"
	}
}

// journalAppend logs one record, tolerating degradation: the first I/O
// failure emits a storage-degraded event, later appends are dropped
// silently. Durability degrades; serving never stops.
func (s *Scheduler) journalAppend(r journal.Record) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.Append(r); err != nil && !errors.Is(err, journal.ErrDegraded) {
		s.serviceEvent(obs.KindStorageDegraded, obs.StoreJournal)
	}
}

// recoverJob replays one journaled accept record after a restart. A
// record whose spec no longer decodes or hashes to its ID is closed out
// with a fail record (the journal itself was CRC-validated, so this
// means a version skew, not corruption); a record whose result is
// already in the cache is closed out as done; anything else re-enters
// the shards as a recovered job.
func (s *Scheduler) recoverJob(rec journal.Record) {
	spec, err := DecodeSpec(rec.Spec)
	if err != nil {
		s.journalAppend(journal.Record{Op: journal.OpFail, ID: rec.ID})
		return
	}
	spec.Normalize()
	canonical, digest, err := spec.Canonical()
	if err != nil || string(digest) != rec.ID {
		s.journalAppend(journal.Record{Op: journal.OpFail, ID: rec.ID})
		return
	}
	if ent, ok := s.cache.Get(digest); ok {
		// The job finished and its result reached the durable spool before
		// the crash; only the terminal record was lost.
		s.journalAppend(journal.Record{Op: journal.OpDone, ID: rec.ID})
		s.mu.Lock()
		s.remember(s.cachedJob(spec, canonical, digest, ent.Result))
		s.mu.Unlock()
		return
	}
	j := s.newJob(spec, canonical, digest)
	j.recovered = true
	s.mu.Lock()
	sh := s.shardOf(digest)
	j.shard = sh
	s.inflight[digest] = j
	s.remember(j)
	s.mu.Unlock()
	// No admit lock here: recovery runs inside the constructor, before the
	// scheduler escapes, so no Submit or Drain can be concurrent. The send
	// may still block when recovered jobs outnumber the queue — the
	// workers are already running and drain it.
	s.shards[sh].ch <- j
	s.recoveredJobs.Add(1)
}

// Cache exposes the result store (tests and stats).
func (s *Scheduler) Cache() *Cache { return s.cache }

// Metrics exposes the shared simulation-metrics registry.
func (s *Scheduler) Metrics() *obs.Metrics { return s.metrics }

// shardOf routes a digest to a shard: the first 8 hex digits of the
// SHA-256 give a uniform index, and equal specs always map to the same
// shard, so a queued duplicate can never overtake its original.
func (s *Scheduler) shardOf(d Digest) int {
	var v uint64
	for _, c := range []byte(d.Short()) {
		v = v<<4 | uint64(hexVal(c))
	}
	return int(v % uint64(len(s.shards)))
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10
	}
	return 0
}

// Submit admits one normalized spec: a cache hit returns a terminal job
// record without running anything; an identical in-flight job coalesces;
// otherwise the job is enqueued on its digest shard. ErrQueueFull and
// ErrDraining report backpressure and shutdown respectively.
func (s *Scheduler) Submit(spec *JobSpec) (*Job, Admission, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, AdmissionNew, err
	}
	canonical, digest, err := spec.Canonical()
	if err != nil {
		return nil, AdmissionNew, err
	}

	// Admission is serialized end-to-end by s.admit: the draining check,
	// the single-flight decision, the write-ahead append and the enqueue
	// all happen under it, so two identical specs can never both miss the
	// inflight table, and a send can never race Drain's channel close.
	// s.mu is taken only for the map touches inside that span — readers
	// never block behind the accept fsync.
	s.admit.Lock()
	defer s.admit.Unlock()

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.rejectedDraining.Add(1)
		return nil, AdmissionNew, ErrDraining
	}
	if ent, ok := s.cache.Get(digest); ok {
		j := s.cachedJob(spec, canonical, digest, ent.Result)
		s.mu.Lock()
		s.remember(j)
		s.mu.Unlock()
		s.submitted.Add(1)
		s.cachedTotal.Add(1)
		return j, AdmissionCached, nil
	}
	s.mu.Lock()
	if j := s.inflight[digest]; j != nil {
		s.mu.Unlock()
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.submitted.Add(1)
		s.coalescedTotal.Add(1)
		return j, AdmissionCoalesced, nil
	}
	s.mu.Unlock()

	j := s.newJob(spec, canonical, digest)
	sh := s.shardOf(digest)
	j.shard = sh
	// The job enters the single-flight table before it is enqueued: the
	// worker that runs it deletes the entry when it finishes, so inserting
	// after the send would race a fast completion and leak a duplicate
	// admission. The entry is undone below if the queue turns out full.
	s.mu.Lock()
	s.inflight[digest] = j
	s.mu.Unlock()
	// Write-ahead: the accept record must be durable before the job is
	// visible to a worker (and before the API layer's 202), so a crash at
	// any later point replays it. The append happens under s.admit — which
	// orders it before the enqueue and before this job's terminal record —
	// deliberately not under s.mu, so the fsync stalls only concurrent
	// admissions, never the read paths.
	//lint:allow determinism -- journal latency phase timestamps; not simulation state
	jnlStart := time.Now()
	//lint:allow lockorder -- admit exists to hold the accept fsync ordered against enqueue and drain; readers use Scheduler.mu and never wait on it
	s.journalAppend(journal.Record{Op: journal.OpAccept, ID: string(digest), Spec: canonical})
	if s.jnl != nil {
		//lint:allow determinism -- journal latency phase timestamps; not simulation state
		j.addPhase("journal accept", jnlStart, time.Now())
	}
	// The record is remembered in the same critical section as the
	// (non-blocking) enqueue, so a runner that takes s.mu — Job, Tracked —
	// always finds its own job in the record table.
	s.mu.Lock()
	select {
	case s.shards[sh].ch <- j:
		s.remember(j)
		s.mu.Unlock()
	default:
		delete(s.inflight, digest)
		s.mu.Unlock()
		s.rejectedFull.Add(1)
		// Close out the journaled accept so the rejected job is not
		// replayed on restart; the client got a 429, not a 202.
		//lint:allow lockorder -- same admission-ordering rationale as the accept append above
		s.journalAppend(journal.Record{Op: journal.OpFail, ID: string(digest)})
		return nil, AdmissionNew, ErrQueueFull
	}
	s.submitted.Add(1)
	return j, AdmissionNew, nil
}

// newJob builds a runnable job record in the queued state.
func (s *Scheduler) newJob(spec *JobSpec, canonical []byte, digest Digest) *Job {
	ring := obs.NewRing(s.cfg.EventRing)
	capture := obs.NewCapture(s.cfg.CaptureEvents)
	j := &Job{
		digest:    digest,
		spec:      spec,
		canonical: canonical,
		ring:      ring,
		capture:   capture,
		events:    obs.Locked(obs.Multi(ring, capture)),
		metrics:   s.metrics.Fork(),
		done:      make(chan struct{}),
		streamMu:  make(chan struct{}, 1),
		tail:      NewLineTail(tailCapacity),
		state:     StateQueued,
	}
	// Surface the first lost live-stream event instead of letting the
	// stream silently thin out: a one-shot service event, a warning log
	// line, and the overflow counters in /v1/stats and /metrics. The
	// hook runs on the producer goroutine and emits into the service
	// sink, never back into the overflowing ring.
	ring.OnFirstDrop(func() {
		s.ringOverflows.Add(1)
		s.serviceEvent(obs.KindRingOverflow, uint32(ring.Cap()))
		s.logWarn("job event ring overflowed; live event stream is incomplete",
			"job", digest.Short(), "capacity", ring.Cap())
	})
	//lint:allow determinism -- serving-layer queue timestamps; not simulation state
	j.submitted = time.Now()
	return j
}

// cachedJob synthesizes a terminal record for a cache hit.
func (s *Scheduler) cachedJob(spec *JobSpec, canonical []byte, digest Digest, res json.RawMessage) *Job {
	j := &Job{
		digest:    digest,
		spec:      spec,
		canonical: canonical,
		done:      make(chan struct{}),
		streamMu:  make(chan struct{}, 1),
		state:     StateDone,
		cached:    true,
		result:    res,
	}
	close(j.done)
	return j
}

// remember tracks a job record for GET /v1/jobs/{id}, bounded so the
// record table cannot grow without limit. Eviction follows insertion
// order, skipping jobs still in flight. The limit covers the worst-case
// in-flight population (every queue full plus one job running per
// shard), and the scan is bounded to one pass over the log: rotating an
// in-flight digest to the back never shrinks the log, so an unbounded
// loop would spin forever under Scheduler.mu if every logged record
// were in flight.
func (s *Scheduler) remember(j *Job) {
	limit := s.cfg.CacheEntries + len(s.shards)*(s.cfg.QueueDepth+1)
	if _, exists := s.records[j.digest]; exists {
		s.records[j.digest] = j // refresh in place; keep the log duplicate-free
		return
	}
	s.records[j.digest] = j
	s.recordLog = append(s.recordLog, j.digest)
	for scan := len(s.recordLog); scan > 0 && len(s.recordLog) > limit; scan-- {
		d := s.recordLog[0]
		s.recordLog = s.recordLog[1:]
		if _, running := s.inflight[d]; running {
			s.recordLog = append(s.recordLog, d)
			continue
		}
		delete(s.records, d)
	}
}

// Tracked reports whether the bounded record table still holds a
// record for d. Layers that keep per-job state of their own prune it by
// this, so it shares the table's bound.
func (s *Scheduler) Tracked(d Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.records[d]
	return ok
}

// Job returns the record for a digest. A record evicted from the table
// but still cached is resynthesized from the result store.
func (s *Scheduler) Job(d Digest) (*Job, bool) {
	s.mu.Lock()
	if j, ok := s.records[d]; ok {
		s.mu.Unlock()
		return j, true
	}
	s.mu.Unlock()
	if ent, ok := s.cache.Get(d); ok {
		// The cache stores the canonical spec next to the result, so the
		// resynthesized record keeps its kind and payload.
		spec := &JobSpec{}
		if dec, err := DecodeSpec(ent.Spec); err == nil {
			spec = dec
		}
		j := &Job{
			digest:    d,
			spec:      spec,
			canonical: ent.Spec,
			done:      make(chan struct{}),
			streamMu:  make(chan struct{}, 1),
			state:     StateDone,
			cached:    true,
			result:    ent.Result,
		}
		close(j.done)
		return j, true
	}
	return nil, false
}

func (s *Scheduler) worker(si int) {
	defer s.wg.Done()
	sh := s.shards[si]
	for j := range sh.ch {
		s.runJob(sh, j)
	}
}

func (s *Scheduler) runJob(sh *shard, j *Job) {
	//lint:allow determinism -- serving-layer latency measurement; not simulation state
	start := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = start
	j.mu.Unlock()

	ctx, cancel := s.rootCtx, context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	res, err := s.cfg.Runner(ctx, j.spec, ExecOptions{
		Parallelism: s.cfg.Parallelism,
		Events:      j.events,
		Metrics:     j.metrics,
		Checkpoint:  s.checkpointIO(j),
	})
	cancel()

	//lint:allow determinism -- serving-layer latency measurement; not simulation state
	runEnd := time.Now()
	j.addPhase("attempt", start, runEnd)
	elapsedMs := uint64(runEnd.Sub(start).Milliseconds())
	sh.executed.Add(1)
	sh.busyMs.Add(elapsedMs)
	s.executed.Add(1)
	s.latency.Observe(elapsedMs)

	if err == nil {
		// Order matters: the result must be durable in the spool before the
		// journal's done record — a crash between the two replays the job
		// (harmless, deterministic), never loses an acknowledged result.
		//lint:allow determinism -- cache-put phase timestamps; not simulation state
		putStart := time.Now()
		s.cache.Put(j.digest, Entry{Spec: j.canonical, Result: res})
		//lint:allow determinism -- cache-put phase timestamps; not simulation state
		j.addPhase("cache put", putStart, time.Now())
		s.ckpt.drop(j.digest)
		//lint:allow determinism -- journal latency phase timestamps; not simulation state
		doneStart := time.Now()
		s.journalAppend(journal.Record{Op: journal.OpDone, ID: string(j.digest)})
		if s.jnl != nil {
			//lint:allow determinism -- journal latency phase timestamps; not simulation state
			j.addPhase("journal done", doneStart, time.Now())
		}
	} else {
		s.failed.Add(1)
		// A shutdown-cancelled job keeps its pending journal record (and
		// checkpoint) so the next start replays and resumes it; only a real
		// failure is closed out as terminal.
		if s.rootCtx.Err() == nil {
			s.journalAppend(journal.Record{Op: journal.OpFail, ID: string(j.digest)})
		}
	}
	s.droppedEvents.Add(j.ring.Dropped())
	if err == nil {
		s.logInfo("job done", "job", j.digest.Short(), "ms", elapsedMs)
	} else {
		s.logWarn("job failed", "job", j.digest.Short(), "ms", elapsedMs, "error", err.Error())
	}
	j.mu.Lock()
	// finished is stamped after the durability writes above, so the root
	// job span in a trace encloses its cache-put and journal-done child
	// phases even when an fsync runs long; the latency metrics measure
	// only the run itself (runEnd) on purpose.
	//lint:allow determinism -- serving-layer phase timestamp; not simulation state
	j.finished = time.Now()
	if err == nil {
		j.state = StateDone
		j.result = res
	} else {
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.mu.Unlock()

	s.mu.Lock()
	delete(s.inflight, j.digest)
	s.mu.Unlock()
	close(j.done)
}

// checkpointIO wires a job to the checkpoint store: progress payloads
// live at the job's digest, and every load/save is surfaced on the job's
// event ring so a live /events stream shows recovery happening.
func (s *Scheduler) checkpointIO(j *Job) *CheckpointIO {
	if s.ckpt == nil {
		return nil
	}
	d := j.digest
	return &CheckpointIO{
		Every: s.cfg.CheckpointEvery,
		Load: func() (json.RawMessage, bool) {
			raw, ok := s.ckpt.get(d)
			if ok {
				j.events.Emit(obs.Event{
					Kind:    obs.KindCheckpointResumed,
					Slot:    0,
					Station: -1,
					Aux:     uint32(len(raw)),
				})
			}
			return raw, ok
		},
		Save: func(raw json.RawMessage) {
			//lint:allow determinism -- checkpoint phase timestamps; not simulation state
			saveStart := time.Now()
			if !s.ckpt.put(d, raw) {
				return
			}
			//lint:allow determinism -- checkpoint phase timestamps; not simulation state
			j.addPhase("checkpoint save", saveStart, time.Now())
			j.events.Emit(obs.Event{
				Kind:    obs.KindCheckpointSaved,
				Slot:    0,
				Station: -1,
				Aux:     uint32(len(raw)),
			})
		},
	}
}

// Draining reports whether the scheduler has begun shutting down.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the scheduler down: new submissions are
// rejected with ErrDraining, queued and running jobs finish, and Drain
// returns when every shard is idle. If ctx expires first, the remaining
// jobs are cancelled through their run contexts and Drain waits for the
// workers to observe it, returning ctx's error.
func (s *Scheduler) Drain(ctx context.Context) error {
	// admit is held while flipping draining and closing the shard
	// channels: Submit holds it across its enqueue, so once we have it no
	// send can race the close (lock order: admit before mu). An admission
	// mid-fsync delays the transition by one append, which is bounded.
	s.admit.Lock()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, sh := range s.shards {
			close(sh.ch)
		}
	}
	s.mu.Unlock()
	s.admit.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	// The workers are the only journal writers left once submissions are
	// rejected, so the journal closes exactly when they go idle.
	closeJournal := func() {
		s.jnlClose.Do(func() {
			if s.jnl != nil {
				_ = s.jnl.Close()
			}
		})
	}
	select {
	case <-idle:
		closeJournal()
		return nil
	case <-ctx.Done():
		s.rootCancel()
		//lint:allow ctxflow -- bounded join: rootCancel has already fired, every worker observes it and exits
		<-idle
		closeJournal()
		return ctx.Err()
	}
}

// Stop shuts down immediately: running jobs are cancelled and Stop
// returns when the workers exit. For tests and benchmarks.
func (s *Scheduler) Stop() {
	s.rootCancel()
	drainCtx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(drainCtx)
}

// ShardStats is one shard's state for /v1/stats.
type ShardStats struct {
	Depth       int     `json:"depth"`
	Capacity    int     `json:"capacity"`
	Executed    uint64  `json:"executed"`
	BusyMs      uint64  `json:"busy_ms"`
	Utilization float64 `json:"utilization"`
}

// LatencyStats summarises job run latency for /v1/stats.
type LatencyStats struct {
	Count     uint64                `json:"count"`
	P50Ms     uint64                `json:"p50_ms"`
	P99Ms     uint64                `json:"p99_ms"`
	Histogram obs.HistogramSnapshot `json:"histogram"`
}

// JobCounters are the scheduler's admission and execution totals.
type JobCounters struct {
	Submitted uint64 `json:"submitted"`
	Coalesced uint64 `json:"coalesced"`
	Cached    uint64 `json:"cached"`
	Executed  uint64 `json:"executed"`
	// Retried is always 0: jobs are deterministic, so the scheduler
	// never re-runs one. The field stays for API compatibility.
	Retried           uint64 `json:"retried"`
	Failed            uint64 `json:"failed"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedDraining  uint64 `json:"rejected_draining"`
}

// DurabilityStats reports the journal and checkpoint state for
// /v1/stats.
type DurabilityStats struct {
	JournalEnabled  bool                   `json:"journal_enabled"`
	JournalAppends  uint64                 `json:"journal_appends,omitempty"`
	JournalDegraded bool                   `json:"journal_degraded,omitempty"`
	FsyncP50Us      uint64                 `json:"fsync_p50_us,omitempty"`
	FsyncP99Us      uint64                 `json:"fsync_p99_us,omitempty"`
	FsyncLatencyUs  *obs.HistogramSnapshot `json:"fsync_latency_us,omitempty"`
	RecoveredJobs   uint64                 `json:"recovered_jobs,omitempty"`
	Checkpoints     *CheckpointStats       `json:"checkpoints,omitempty"`
}

// EventStats reports live-telemetry health for /v1/stats: rings that
// overflowed and the events they lost. Non-zero numbers mean /events
// streams were incomplete; traces still cover the captured prefix.
type EventStats struct {
	RingOverflows uint64 `json:"ring_overflows"`
	DroppedEvents uint64 `json:"dropped_events"`
}

// Stats is the full serialisable scheduler state for /v1/stats. The JSON
// field names are a stable contract consumed by mcctl and CI smoke jobs.
type Stats struct {
	Draining      bool            `json:"draining"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Jobs          JobCounters     `json:"jobs"`
	Cache         CacheStats      `json:"cache"`
	Shards        []ShardStats    `json:"shards"`
	Latency       LatencyStats    `json:"latency"`
	Durability    DurabilityStats `json:"durability"`
	Events        EventStats      `json:"events"`
	Sim           obs.Snapshot    `json:"sim"`
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	//lint:allow determinism -- serving-layer uptime clock; not simulation state
	uptime := time.Since(s.start)
	st := Stats{
		Draining:      s.Draining(),
		UptimeSeconds: uptime.Seconds(),
		Jobs: JobCounters{
			Submitted:         s.submitted.Load(),
			Coalesced:         s.coalescedTotal.Load(),
			Cached:            s.cachedTotal.Load(),
			Executed:          s.executed.Load(),
			Failed:            s.failed.Load(),
			RejectedQueueFull: s.rejectedFull.Load(),
			RejectedDraining:  s.rejectedDraining.Load(),
		},
		Cache: s.cache.Stats(),
		Durability: DurabilityStats{
			JournalEnabled: s.jnl != nil,
			RecoveredJobs:  s.recoveredJobs.Load(),
		},
		Latency: LatencyStats{
			Count:     s.latency.Count(),
			P50Ms:     s.latency.Quantile(0.50),
			P99Ms:     s.latency.Quantile(0.99),
			Histogram: s.latency.State(),
		},
		Events: EventStats{
			RingOverflows: s.ringOverflows.Load(),
			DroppedEvents: s.droppedEvents.Load(),
		},
		Sim: s.metrics.Snapshot(uptime),
	}
	if s.jnl != nil {
		st.Durability.JournalAppends = s.jnl.Appends()
		st.Durability.JournalDegraded = s.jnl.Degraded()
		st.Durability.FsyncP50Us = s.jnl.FsyncQuantile(0.50)
		st.Durability.FsyncP99Us = s.jnl.FsyncQuantile(0.99)
		fl := s.jnl.FsyncLatency()
		st.Durability.FsyncLatencyUs = &fl
	}
	if s.ckpt != nil {
		cs := s.ckpt.Stats()
		st.Durability.Checkpoints = &cs
	}
	st.Shards = make([]ShardStats, len(s.shards))
	busyTotal := uint64(0)
	for i, sh := range s.shards {
		busy := sh.busyMs.Load()
		busyTotal += busy
		st.Shards[i] = ShardStats{
			Depth:    len(sh.ch),
			Capacity: s.cfg.QueueDepth,
			Executed: sh.executed.Load(),
			BusyMs:   busy,
		}
		if ms := uptime.Milliseconds(); ms > 0 {
			st.Shards[i].Utilization = float64(busy) / float64(ms)
		}
	}
	return st
}

// Health snapshots the scheduler's health for GET /v1/healthz: the
// draining/degraded summary, per-store durability state, and build
// identity. Cheap enough for per-second registry heartbeats.
func (s *Scheduler) Health() HealthResponse {
	storeState := func(enabled, degraded bool) string {
		switch {
		case !enabled:
			return "disabled"
		case degraded:
			return "degraded"
		}
		return "ok"
	}
	h := HealthResponse{
		Status:      "ok",
		Version:     buildVersion(),
		GoVersion:   runtime.Version(),
		Journal:     storeState(s.jnl != nil, s.jnl != nil && s.jnl.Degraded()),
		Spool:       storeState(s.cfg.SpoolDir != "", s.cache.Degraded()),
		Checkpoints: storeState(s.ckpt != nil, s.ckpt.Degraded()),
	}
	if h.Degraded() {
		h.Status = "degraded"
	}
	if s.Draining() {
		h.Status = "draining"
	}
	return h
}

// buildVersion is the main module's version as stamped by the Go
// toolchain ("(devel)" for plain builds, a tag or pseudo-version for
// module-aware installs).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// RetryAfter estimates how long a rejected caller should back off:
// roughly one median job time per queued job ahead of it on the fullest
// shard, clamped to [1s, 30s].
func (s *Scheduler) RetryAfter() time.Duration {
	depth := 0
	for _, sh := range s.shards {
		if d := len(sh.ch); d > depth {
			depth = d
		}
	}
	p50 := s.latency.Quantile(0.50)
	if p50 == 0 {
		p50 = 100 // no history yet: assume a fast job
	}
	est := time.Duration(uint64(depth)*p50) * time.Millisecond
	if est < time.Second {
		est = time.Second
	}
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}

// String renders an admission for logs.
func (a Admission) String() string {
	switch a {
	case AdmissionNew:
		return "enqueued"
	case AdmissionCoalesced:
		return "coalesced"
	case AdmissionCached:
		return "cached"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}
