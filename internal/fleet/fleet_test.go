package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// newWorker starts a real worker service (scheduler + HTTP API) and
// returns its base URL. runner, if non-nil, replaces serve.Execute.
func newWorker(t *testing.T, runner serve.Runner) (string, *httptest.Server) {
	t.Helper()
	sched, err := serve.NewScheduler(serve.Config{Shards: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Stop)
	ts := httptest.NewServer(serve.NewServer(sched))
	t.Cleanup(ts.Close)
	return ts.URL, ts
}

// newFleet builds a coordinator over the given workers, starts its
// heartbeats and waits until every worker has been seen alive.
func newFleet(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 20 * time.Millisecond
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	coord.Start()
	waitUsable(t, coord, len(cfg.Workers))
	return coord
}

func waitUsable(t *testing.T, coord *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for coord.registry.Usable() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers usable after 5s", coord.registry.Usable(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// singleNodeResult runs the logical spec on one standalone scheduler
// and returns the raw result bytes — the byte-identity reference.
func singleNodeResult(t *testing.T, raw string) json.RawMessage {
	t.Helper()
	sched, err := serve.NewScheduler(serve.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Stop()
	job, _, err := sched.Submit(decodeSpec(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	if st.State != serve.StateDone {
		t.Fatalf("single-node run failed: %s", st.Error)
	}
	return st.Result
}

// fleetResult submits the logical spec to the coordinator and waits for
// the merged result.
func fleetResult(t *testing.T, coord *Coordinator, raw string) (json.RawMessage, JobView) {
	t.Helper()
	job, _, err := coord.Submit(decodeSpec(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("fleet job did not finish within 2m")
	}
	st := coord.View(job)
	if st.State != serve.StateDone {
		t.Fatalf("fleet job failed: %s", st.Error)
	}
	return st.Result, st
}

// TestFleetByteIdenticalToSingleNode is the core acceptance test: each
// shardable kind, split across a fleet of three workers, merges to the
// exact bytes a single node produces.
func TestFleetByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	var urls []string
	for i := 0; i < 3; i++ {
		u, _ := newWorker(t, nil)
		urls = append(urls, u)
	}
	coord := newFleet(t, Config{Workers: urls, ShardsPerJob: 5})

	for name, raw := range map[string]string{
		"sweep":    `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":60,"berStar":0.02,"seed":7,"seeds":10,"eofOnly":true,"resetCounters":true}}`,
		"campaign": `{"campaign":{"protocol":"majorcan","nodes":4,"frames":1,"trials":12,"maxFaults":3,"seed":11}}`,
		"verify":   `{"verify":{"protocol":"majorcan","stations":3,"maxFlips":2,"positions":3}}`,
	} {
		t.Run(name, func(t *testing.T) {
			want := singleNodeResult(t, raw)
			got, st := fleetResult(t, coord, raw)
			if len(st.Shards) < 2 {
				t.Fatalf("job ran as %d shard(s); the fleet path was not exercised", len(st.Shards))
			}
			if string(got) != string(want) {
				t.Fatalf("merged result differs from single-node run\nfleet:  %.200s\nsingle: %.200s", got, want)
			}
		})
	}
}

// blockUntil returns a Runner that delegates to serve.Execute, except
// for specs match() selects, which block until release closes (or the
// job context ends).
func blockUntil(release <-chan struct{}, match func(*serve.JobSpec) bool) serve.Runner {
	return func(ctx context.Context, spec *serve.JobSpec, opt serve.ExecOptions) (json.RawMessage, error) {
		if match(spec) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return serve.Execute(ctx, spec, opt)
	}
}

// TestFleetWorkerLossReassignsShards kills a worker mid-job and checks
// the coordinator reassigns its shards and still merges byte-identical
// to a single-node run.
func TestFleetWorkerLossReassignsShards(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":60,"berStar":0.02,"seed":7,"seeds":8,"eofOnly":true,"resetCounters":true}}`
	want := singleNodeResult(t, raw)

	// The doomed worker never finishes any sweep shard: its runner blocks
	// until the job context dies. Killing its connections forces the
	// coordinator to reassign everything it held.
	stuck := make(chan struct{}) // never closed
	doomedURL, doomed := newWorker(t, blockUntil(stuck, func(s *serve.JobSpec) bool { return s.Sweep != nil }))
	healthy1, _ := newWorker(t, nil)
	healthy2, _ := newWorker(t, nil)

	coord := newFleet(t, Config{
		Workers:      []string{doomedURL, healthy1, healthy2},
		ShardsPerJob: 4,
		ShardWait:    time.Minute,
	})

	job, _, err := coord.Submit(decodeSpec(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	// Let dispatch land on the doomed worker, then sever it. In-flight
	// blocking submits error out and the shards move elsewhere.
	time.Sleep(100 * time.Millisecond)
	doomed.CloseClientConnections()

	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("fleet job did not finish after worker loss")
	}
	st := coord.View(job)
	if st.State != serve.StateDone {
		t.Fatalf("fleet job failed after worker loss: %s", st.Error)
	}
	if string(st.Result) != string(want) {
		t.Fatalf("merged result after reassignment differs from single-node run")
	}
	if got := coord.Stats().Shards.Reassigned; got == 0 {
		t.Fatal("no shard was reassigned; the worker-loss path was not exercised")
	}
	for _, sh := range st.Shards {
		if sh.State != ShardDone {
			t.Fatalf("shard %d ended %s, want done", sh.Index, sh.State)
		}
	}
}

// TestFleetCoordinatorKillAndRecover stops a coordinator mid-job and
// verifies a successor on the same journal and spool resumes the shard
// table: finished shards are adopted from the spool without re-running,
// the missing shard re-dispatches, and the merge is byte-identical —
// no shard lost, none double-counted.
func TestFleetCoordinatorKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":60,"berStar":0.02,"seed":7,"seeds":10,"eofOnly":true,"resetCounters":true}}`
	want := singleNodeResult(t, raw)

	// Gate the shard that starts at seed 12 (the second of two 5-seed
	// shards): it blocks until released, so the first coordinator dies
	// with exactly one shard spooled.
	release := make(chan struct{})
	gate := blockUntil(release, func(s *serve.JobSpec) bool {
		return s.Sweep != nil && s.Sweep.Seed == 12
	})
	var runMu sync.Mutex
	runs := map[int64]int{} // sweep start seed -> executions
	counting := func(ctx context.Context, spec *serve.JobSpec, opt serve.ExecOptions) (json.RawMessage, error) {
		if spec.Sweep != nil {
			runMu.Lock()
			runs[spec.Sweep.Seed]++
			runMu.Unlock()
		}
		return gate(ctx, spec, opt)
	}
	w1, _ := newWorker(t, counting)
	w2, _ := newWorker(t, counting)

	dir := t.TempDir()
	cfg := Config{
		Workers:      []string{w1, w2},
		ShardsPerJob: 2,
		Heartbeat:    20 * time.Millisecond,
		SpoolDir:     filepath.Join(dir, "spool"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}

	first, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Start()
	waitUsable(t, first, 2)
	job, _, err := first.Submit(decodeSpec(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the ungated shard has finished and spooled.
	deadline := time.Now().Add(time.Minute)
	for {
		st := first.View(job)
		done := 0
		for _, sh := range st.Shards {
			if sh.State == ShardDone {
				done++
			}
		}
		if done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard finished before the kill; states %+v", st.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Kill the coordinator mid-job. The abort must leave the journal
	// record pending, not failed.
	first.Stop()
	close(release)

	second, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(second.Stop)
	recovered, ok := second.Job(decodeDigest(t, raw))
	if !ok {
		t.Fatal("restarted coordinator did not replay the pending job from the journal")
	}
	second.Start()
	waitUsable(t, second, 2)

	select {
	case <-recovered.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("recovered fleet job did not finish")
	}
	st := second.View(recovered)
	if st.State != serve.StateDone {
		t.Fatalf("recovered job failed: %s", st.Error)
	}
	if !st.Recovered {
		t.Fatal("job status does not mark the journal recovery")
	}
	if string(st.Result) != string(want) {
		t.Fatalf("recovered merge differs from single-node run")
	}
	adopted := 0
	for _, sh := range st.Shards {
		if sh.State != ShardDone {
			t.Fatalf("shard %d ended %s after recovery, want done (shard lost)", sh.Index, sh.State)
		}
		if sh.Cached {
			adopted++
		}
	}
	if adopted != 1 {
		t.Fatalf("%d shards adopted from the spool, want exactly 1", adopted)
	}
	// At-most-once effect: the shard that finished before the kill must
	// not have re-executed after recovery.
	runMu.Lock()
	defer runMu.Unlock()
	if runs[7] != 1 {
		t.Fatalf("pre-kill shard (seed 7) executed %d times, want 1 (double-counted)", runs[7])
	}
	if runs[12] == 0 {
		t.Fatal("gated shard (seed 12) never executed after recovery")
	}
}

func decodeDigest(t *testing.T, raw string) serve.Digest {
	t.Helper()
	_, d, err := decodeSpec(t, raw).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleetBackpressureAndCoalescing covers the admission mirror: a
// second identical submit coalesces onto the in-flight job, a resubmit
// after completion is served from the merged-result cache, and a
// draining coordinator rejects.
func TestFleetBackpressureAndCoalescing(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	release := make(chan struct{})
	gate := blockUntil(release, func(s *serve.JobSpec) bool { return s.Sweep != nil })
	u, _ := newWorker(t, gate)
	coord := newFleet(t, Config{Workers: []string{u}, ShardsPerJob: 2})

	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":50,"berStar":0.02,"seed":7,"seeds":4,"eofOnly":true,"resetCounters":true}}`
	j1, adm, err := coord.Submit(decodeSpec(t, raw))
	if err != nil || adm != serve.AdmissionNew {
		t.Fatalf("first submit: adm=%v err=%v", adm, err)
	}
	j2, adm, err := coord.Submit(decodeSpec(t, raw))
	if err != nil || adm != serve.AdmissionCoalesced || j2 != j1 {
		t.Fatalf("identical in-flight submit: adm=%v err=%v same=%v", adm, err, j2 == j1)
	}
	close(release)
	select {
	case <-j1.Done():
	case <-time.After(time.Minute):
		t.Fatal("gated job did not finish after release")
	}
	_, adm, err = coord.Submit(decodeSpec(t, raw))
	if err != nil || adm != serve.AdmissionCached {
		t.Fatalf("resubmit after completion: adm=%v err=%v, want cached", adm, err)
	}

	go func() { _ = coord.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !coord.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never started draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	other := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":50,"berStar":0.02,"seed":99,"seeds":4,"eofOnly":true,"resetCounters":true}}`
	if _, _, err := coord.Submit(decodeSpec(t, other)); err != ErrDraining {
		t.Fatalf("draining submit error = %v, want ErrDraining", err)
	}
}

// waitDone waits for a job submitted straight to the coordinator.
func waitDone(t *testing.T, job *serve.Job) serve.JobStatus {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		t.Fatal("fleet job did not finish within 1m")
	}
	return job.Status()
}

// TestFleetRetriesFailedJob: a logical job that failed — here because
// its worker failed the shard once — is not served from the cache;
// resubmitting it runs it again, as a single node re-runs failures.
func TestFleetRetriesFailedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	var calls atomic.Int32
	u, _ := newWorker(t, func(ctx context.Context, spec *serve.JobSpec, opt serve.ExecOptions) (json.RawMessage, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("injected worker failure")
		}
		return serve.Execute(ctx, spec, opt)
	})
	coord := newFleet(t, Config{Workers: []string{u}, ShardsPerJob: 2})

	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":40,"berStar":0.02,"seed":7,"seeds":1,"eofOnly":true,"resetCounters":true}}`
	job, _, err := coord.Submit(decodeSpec(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, job); st.State != serve.StateFailed {
		t.Fatalf("first run ended %s, want failed", st.State)
	}
	job, adm, err := coord.Submit(decodeSpec(t, raw))
	if err != nil || adm != serve.AdmissionNew {
		t.Fatalf("resubmit after failure: adm=%v err=%v, want a new admission", adm, err)
	}
	st := waitDone(t, job)
	if st.State != serve.StateDone {
		t.Fatalf("re-run ended %s (%s), want done", st.State, st.Error)
	}
	if string(st.Result) != string(singleNodeResult(t, raw)) {
		t.Fatal("re-run result differs from a single-node run")
	}
}

// TestFleetJobTableBounded: the coordinator's per-job views are bounded
// like the scheduler's record table — distinct jobs beyond the bound
// evict the oldest views — and an evicted job is still answered from
// the spool.
func TestFleetJobTableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	u, _ := newWorker(t, func(context.Context, *serve.JobSpec, serve.ExecOptions) (json.RawMessage, error) {
		return json.RawMessage(`{"stub":true}`), nil
	})
	cfg := Config{Workers: []string{u}, ShardsPerJob: 1, MaxJobs: 1, CacheEntries: 2, SpoolDir: t.TempDir()}
	coord := newFleet(t, cfg)
	ts := httptest.NewServer(NewServer(coord))
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL)

	// The scheduler's record bound: cache entries plus every queue full
	// and one job running per shard (serve's default queue depth is 64).
	bound := cfg.CacheEntries + cfg.MaxJobs*(64+1)
	var first serve.Digest
	for i := 0; i < bound+8; i++ {
		raw := fmt.Sprintf(`{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":10,"berStar":0.02,"seed":%d,"seeds":1}}`, 1000+i)
		job, _, err := coord.Submit(decodeSpec(t, raw))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, job); st.State != serve.StateDone {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
		if i == 0 {
			first = job.Digest()
		}
	}
	ctx := context.Background()
	var fv FleetView
	if err := client.GetJSON(ctx, "/v1/fleet", &fv); err != nil {
		t.Fatal(err)
	}
	if len(fv.Jobs) > bound {
		t.Fatalf("/v1/fleet holds %d jobs, want at most %d", len(fv.Jobs), bound)
	}
	var view JobView
	if err := client.GetJSON(ctx, "/v1/jobs/"+string(first), &view); err != nil {
		t.Fatalf("evicted but spooled job: %v", err)
	}
	if view.State != serve.StateDone || string(view.Result) == "" {
		t.Fatalf("evicted job answered %s without a result", view.State)
	}
}
