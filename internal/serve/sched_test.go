package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sweepSpec(t *testing.T, seed int64) *JobSpec {
	t.Helper()
	return mustDecode(t, fmt.Sprintf(`{"sweep":{"protocol":"can","frames":10,"berStar":0.01,"seed":%d}}`, seed))
}

// countingRunner records executions and returns a result derived from the
// spec digest, optionally blocking until released.
type countingRunner struct {
	runs    atomic.Int64
	block   chan struct{} // non-nil: runs wait here (or for ctx)
	started chan struct{} // buffered; one send per run start
}

func (c *countingRunner) run(ctx context.Context, spec *JobSpec, _ ExecOptions) (json.RawMessage, error) {
	c.runs.Add(1)
	if c.started != nil {
		c.started <- struct{}{}
	}
	if c.block != nil {
		select {
		case <-c.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, d, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	return json.RawMessage(fmt.Sprintf(`{"digest":%q}`, d)), nil
}

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestSchedulerSingleFlight(t *testing.T) {
	r := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := newTestScheduler(t, Config{Shards: 4, Runner: r.run})

	spec := sweepSpec(t, 1)
	first, adm, err := s.Submit(spec)
	if err != nil || adm != AdmissionNew {
		t.Fatalf("first submit: adm=%v err=%v", adm, err)
	}
	<-r.started // the job is running, not just queued

	// Identical concurrent submissions coalesce onto the running job.
	const callers = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, adm, err := s.Submit(sweepSpec(t, 1))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if adm != AdmissionCoalesced {
				t.Errorf("submit %d: admission %v, want coalesced", i, adm)
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	close(r.block)
	<-first.Done()

	if got := r.runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical submissions, want exactly 1", got, callers+1)
	}
	want := first.Status().Result
	for i, j := range jobs {
		if j == nil {
			continue
		}
		<-j.Done()
		if got := j.Status().Result; string(got) != string(want) {
			t.Fatalf("caller %d result %s != first %s", i, got, want)
		}
	}
}

func TestSchedulerCacheHitSkipsExecution(t *testing.T) {
	r := &countingRunner{}
	s := newTestScheduler(t, Config{Shards: 1, Runner: r.run})

	j1, _, err := s.Submit(sweepSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if r.runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", r.runs.Load())
	}

	j2, adm, err := s.Submit(sweepSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if adm != AdmissionCached {
		t.Fatalf("resubmit admission %v, want cached", adm)
	}
	<-j2.Done() // cached jobs are born terminal
	st := j2.Status()
	if !st.Cached || st.State != StateDone {
		t.Fatalf("resubmit status %+v, want cached done", st)
	}
	if string(st.Result) != string(j1.Status().Result) {
		t.Fatal("cached result differs from the original")
	}
	if got := r.runs.Load(); got != 1 {
		t.Fatalf("byte-identical resubmit re-ran the simulation (runs = %d)", got)
	}
	if cs := s.Cache().Stats(); cs.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", cs.Hits)
	}
}

func TestSchedulerQueueFullBackpressure(t *testing.T) {
	r := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := newTestScheduler(t, Config{Shards: 1, QueueDepth: 1, Runner: r.run})
	defer close(r.block)

	// Fill the worker (1 running) and the queue (1 waiting). Distinct
	// seeds so nothing coalesces; one shard so they all collide.
	if _, _, err := s.Submit(sweepSpec(t, 10)); err != nil {
		t.Fatal(err)
	}
	<-r.started
	if _, _, err := s.Submit(sweepSpec(t, 11)); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Submit(sweepSpec(t, 12))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Jobs.RejectedQueueFull; got != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", got)
	}
	if s.RetryAfter() < time.Second {
		t.Fatalf("RetryAfter %s below the 1s floor", s.RetryAfter())
	}
}

func TestSchedulerDoesNotRetryDeterministicFailures(t *testing.T) {
	var calls atomic.Int64
	runner := func(ctx context.Context, spec *JobSpec, _ ExecOptions) (json.RawMessage, error) {
		calls.Add(1)
		return nil, errors.New("simulation rejects this configuration")
	}
	s := newTestScheduler(t, Config{Shards: 1, Runner: runner})
	j, _, err := s.Submit(sweepSpec(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if calls.Load() != 1 {
		t.Fatalf("deterministic failure retried (%d calls); identical inputs give identical failures", calls.Load())
	}
	if st := j.Status(); st.State != StateFailed || st.Error == "" {
		t.Fatalf("status %+v, want failed with message", st)
	}
	// Failures must never populate the cache.
	if _, ok := s.Cache().Get(j.Digest()); ok {
		t.Fatal("failed job result found in cache")
	}
}

func TestSchedulerJobTimeout(t *testing.T) {
	runner := func(ctx context.Context, spec *JobSpec, _ ExecOptions) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := newTestScheduler(t, Config{Shards: 1, JobTimeout: 20 * time.Millisecond, Runner: runner})
	j, _, err := s.Submit(sweepSpec(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job did not time out")
	}
	if st := j.Status(); st.State != StateFailed {
		t.Fatalf("state %q, want failed on timeout", st.State)
	}
}

func TestSchedulerDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	r := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := newTestScheduler(t, Config{Shards: 2, Runner: r.run})

	j, _, err := s.Submit(sweepSpec(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	<-r.started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, s.Draining, "scheduler to enter draining state")

	if _, _, err := s.Submit(sweepSpec(t, 41)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain err = %v, want ErrDraining", err)
	}

	close(r.block) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("in-flight job state %q after drain, want done", st.State)
	}
}

func TestSchedulerDrainDeadlineCancelsStragglers(t *testing.T) {
	runner := func(ctx context.Context, spec *JobSpec, _ ExecOptions) (json.RawMessage, error) {
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	s := newTestScheduler(t, Config{Shards: 1, Runner: runner})
	j, _, err := s.Submit(sweepSpec(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateFailed {
		t.Fatalf("straggler state %q, want failed", st.State)
	}
}

func TestSchedulerRoutesByDigest(t *testing.T) {
	s := newTestScheduler(t, Config{Shards: 4, Runner: (&countingRunner{}).run})
	for seed := int64(0); seed < 20; seed++ {
		spec := sweepSpec(t, seed)
		_, d, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		a, b := s.shardOf(d), s.shardOf(d)
		if a != b || a < 0 || a >= 4 {
			t.Fatalf("shardOf(%s) unstable or out of range: %d, %d", d.Short(), a, b)
		}
	}
}

func TestRememberBoundedWhenAllRecordsInFlight(t *testing.T) {
	// Regression: when every logged record was in flight and the log
	// exceeded the limit, the eviction loop rotated digests forever while
	// holding Scheduler.mu. It must finish in one pass over the log.
	s := &Scheduler{
		cfg:      Config{CacheEntries: 1, QueueDepth: 1},
		shards:   make([]*shard, 1),
		inflight: make(map[Digest]*Job),
		records:  make(map[Digest]*Job),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ { // limit = 1 + 1*(1+1) = 3, so 8 overflows it
			j := &Job{digest: testDigest(fmt.Sprintf("inflight-%d", i))}
			s.inflight[j.digest] = j
			s.remember(j)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("remember() spun on an all-in-flight record log")
	}
	if len(s.records) != 8 {
		t.Fatalf("in-flight records evicted: %d remain, want 8", len(s.records))
	}
}

func TestJobKindSurvivesRecordEviction(t *testing.T) {
	s := newTestScheduler(t, Config{Shards: 1, Runner: (&countingRunner{}).run})
	j, _, err := s.Submit(sweepSpec(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	d := j.Digest()

	// Evict the record; only the cache entry survives.
	s.mu.Lock()
	delete(s.records, d)
	s.recordLog = nil
	s.mu.Unlock()

	got, ok := s.Job(d)
	if !ok {
		t.Fatal("cached job unreachable after record eviction")
	}
	st := got.Status()
	if st.Kind != KindSweep {
		t.Fatalf("resynthesized record kind %q, want %q (spec lost across eviction)", st.Kind, KindSweep)
	}
	if st.State != StateDone || !st.Cached || len(st.Result) == 0 {
		t.Fatalf("resynthesized record %+v, want cached done with result", st)
	}
	if got.Spec().Sweep == nil || got.Spec().Sweep.Seed != 23 {
		t.Fatal("resynthesized record lost the spec payload")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}
