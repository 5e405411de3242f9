package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/verify"
)

// fig3aScript is the shrunk Fig. 3a counterexample on standard CAN: two
// view flips that make one receiver miss a frame the others deliver.
const fig3aScript = `{"version":1,"protocol":"CAN","nodes":5,"frames":1,"faults":[` +
	`{"kind":"view-flip","station":0,"eofRel":7,"attempt":1},` +
	`{"kind":"view-flip","station":2,"eofRel":6,"attempt":1}]}`

// shardsPerJob is the fleet coordinator's shard target: two per worker.
const shardsPerJob = 4

// jobSizes sizes the generated service jobs.
type jobSizes struct {
	sweepFrames, sweepSeeds int
	trials                  int
	window                  int
}

// jobMix generates the service workloads' inputs: cold sweeps with
// distinct seeds, small campaigns, small verify windows near the start
// of the envelope space (so the window seek stays small) and the Fig. 3a
// script. Repeats of completed specs come from the driver.
type jobMix struct {
	seed  int64
	sizes jobSizes
}

// deck is the kind mix: every consecutive run of len(deck) fresh jobs is
// one seeded shuffle of it, so the mix proportions hold in every window
// whatever the seed.
var deck = [...]serve.Kind{
	serve.KindSweep, serve.KindSweep, serve.KindSweep, serve.KindSweep, serve.KindSweep,
	serve.KindCampaign, serve.KindCampaign, serve.KindVerify, serve.KindVerify, serve.KindScript,
}

func (g jobMix) fresh(i int) job {
	perm := rand.New(rand.NewSource(g.seed*7_777_777 + int64(i/len(deck)))).Perm(len(deck))
	return g.build(deck[perm[i%len(deck)]], i)
}

// build generates the spec of kind for fresh index i (negative indices
// are outside the fresh stream, for warm-ups).
func (g jobMix) build(kind serve.Kind, i int) job {
	rng := rand.New(rand.NewSource(g.seed*2654435761 + int64(i)))
	base := 1 + g.seed*1_000_000 + int64(i)*1000
	spec := &serve.JobSpec{}
	switch kind {
	case serve.KindSweep:
		spec.Sweep = &sim.SweepSpec{Protocol: protocol, Nodes: 5, Frames: g.sizes.sweepFrames,
			BerStar: 0.02, Seed: base, Seeds: g.sizes.sweepSeeds, EOFOnly: true, ResetCounters: true}
	case serve.KindCampaign:
		spec.Campaign = &chaos.CampaignSpec{Protocol: protocol, Nodes: 4, Frames: 1,
			Trials: g.sizes.trials, MaxFaults: 3, Seed: base}
	case serve.KindVerify:
		v := envelope
		v.PatternStart = rng.Intn(200_000)
		v.PatternCount = g.sizes.window
		spec.Verify = &v
	default:
		var sc chaos.Script
		if err := json.Unmarshal([]byte(fig3aScript), &sc); err != nil {
			panic(err) // a constant
		}
		spec.Script = &sc
	}
	spec.Normalize()
	_, d, err := spec.Canonical()
	if err != nil {
		panic(err) // generated specs are valid by construction
	}
	return job{index: i, key: string(d), kind: string(spec.Kind), spec: spec}
}

// service is what jobs_http and jobs_fleet share: a loopback /v1 API, a
// client per closed-loop worker, and the checks against serve.Execute.
type service struct {
	e       *env
	mix     jobMix
	client  *serve.Client
	servers []*http.Server
	stop    []func()
	fleet   bool
	sched   *serve.Scheduler // jobs_http: the scheduler behind the API
	workers []*serve.Client  // jobs_fleet: the workers' own APIs
	serving sync.WaitGroup   // the listeners' Serve goroutines

	mu      sync.Mutex
	pending []pendingTrace
	views   map[string]fleet.JobView
}

// listen serves h on a loopback port and returns its base URL.
func (s *service) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once Close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// newScheduler builds a durable single-node scheduler under dir with the
// given number of worker shards, and otherwise the mcservd defaults
// except a checkpoint every 2 work units, so that the small generated
// jobs save checkpoints too.
//
// Shard counts are sized to the cores: with more simulating shards than
// cores left over, a cache hit waits for the Go scheduler to preempt a
// simulation (up to 10 ms), and cached-job latency measures that instead
// of the service.
func newScheduler(dir string, shards int) (*serve.Scheduler, error) {
	return serve.NewScheduler(serve.Config{
		Shards:          shards,
		Parallelism:     1,
		SpoolDir:        filepath.Join(dir, "spool"),
		JournalPath:     filepath.Join(dir, "journal.wal"),
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
		CheckpointEvery: 2,
	})
}

func (s *service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close() // connections still busy after 5s: drop them
		}
	}
	s.serving.Wait()
	for i := len(s.stop) - 1; i >= 0; i-- {
		s.stop[i]()
	}
}

// warmUp runs one sweep, one campaign and one verify job outside the
// fresh stream to completion. (The script is left cold: it has a single
// spec, which a warm-up would turn into a cache hit for the whole run.)
func (s *service) warmUp(ctx context.Context) error {
	for k, kind := range []serve.Kind{serve.KindSweep, serve.KindCampaign, serve.KindVerify} {
		j := s.mix.build(kind, -1-s.e.setupIndex*3-k)
		resp, err := s.client.Submit(ctx, j.spec.(*serve.JobSpec), -1)
		if err != nil {
			return err
		}
		if resp.Status.State != serve.StateDone {
			return fmt.Errorf("warm-up job %s: %s", resp.Status.State, resp.Status.Error)
		}
	}
	return nil
}

// jobsHTTP: nproc closed-loop clients, each POST /v1/jobs?wait=true on a
// durable single-node scheduler with nproc-1 shards (one core is left to
// the API, admission and cache hits), waiting for the result.
var jobsHTTP = &workload{
	name:       "jobs_http",
	clients:    func(e *env) int { return e.clients },
	repeatFrac: 0.4,
	setup: func(ctx context.Context, e *env) (session, error) {
		s := &service{e: e, mix: jobMix{seed: e.opts.seed, sizes: jobSizes{100, 4, 8, 200}}}
		if e.opts.tiny {
			s.mix.sizes = jobSizes{10, 2, 2, 8}
		}
		dir := filepath.Join(e.tmp, fmt.Sprintf("http-%d", e.setupIndex))
		sched, err := newScheduler(dir, max(1, e.clients-1))
		if err != nil {
			return nil, err
		}
		s.sched = sched
		s.stop = append(s.stop, sched.Stop)
		url, err := s.listen(serve.NewServer(sched))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.client = serve.NewClient(url)
		if err := s.warmUp(ctx); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	},
}

// jobsFleet: the same generator against a fleet coordinator fronting two
// loopback workers with nproc/2 shards each, so the workers together
// simulate on every core. nproc-1 closed-loop clients each wait for the
// merged result: one logical job already spreads over every core through
// its shards, so with nproc clients a cache hit would mostly wait for a
// core, as newScheduler explains.
var jobsFleet = &workload{
	name:       "jobs_fleet",
	clients:    func(e *env) int { return max(1, e.clients-1) },
	repeatFrac: 0.4,
	setup: func(ctx context.Context, e *env) (session, error) {
		s := &service{e: e, fleet: true, mix: jobMix{seed: e.opts.seed, sizes: jobSizes{100, 8, 16, 800}}}
		if e.opts.tiny {
			s.mix.sizes = jobSizes{10, 4, 4, 16}
		}
		dir := filepath.Join(e.tmp, fmt.Sprintf("fleet-%d", e.setupIndex))
		var urls []string
		for w := 0; w < 2; w++ {
			// Workers run like a default mcservd: memory only. The
			// coordinator's spool and journal are what make the fleet
			// durable, and a dozen more fsyncs per job on the shared disk
			// would make jobs_fleet measure the disk.
			sched, err := serve.NewScheduler(serve.Config{Shards: max(1, e.clients/2), Parallelism: 1})
			if err != nil {
				s.Close()
				return nil, err
			}
			s.stop = append(s.stop, sched.Stop)
			url, err := s.listen(serve.NewServer(sched))
			if err != nil {
				s.Close()
				return nil, err
			}
			urls = append(urls, url)
			s.workers = append(s.workers, serve.NewClient(url))
		}
		coord, err := fleet.NewCoordinator(fleet.Config{
			Workers:      urls,
			ShardsPerJob: shardsPerJob,
			SpoolDir:     filepath.Join(dir, "coordinator"),
			JournalPath:  filepath.Join(dir, "coordinator", "journal.wal"),
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.stop = append(s.stop, coord.Stop)
		coord.Start()
		url, err := s.listen(fleet.NewServer(coord))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.client = serve.NewClient(url)
		// Usable means every worker has answered a heartbeat, as seen
		// through the coordinator's public stats.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var st fleet.Stats
			if err := s.client.GetJSON(ctx, "/v1/stats", &st); err == nil && st.WorkersUsable == len(urls) {
				break
			}
			if time.Now().After(deadline) {
				s.Close()
				return nil, errors.New("fleet workers not usable after 10s")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := s.warmUp(ctx); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	},
}

func (s *service) Fresh(i int) job { return s.mix.fresh(i) }

// workOf counts the simulated work in a job result.
func workOf(kind serve.Kind, raw []byte) (frames, slots, patterns float64) {
	switch kind {
	case serve.KindSweep:
		var o sim.SweepOutcome
		if json.Unmarshal(raw, &o) == nil {
			for _, p := range o.Points {
				slots += float64(p.Slots)
			}
			return float64(o.Summary.Frames), slots, float64(o.Summary.Frames)
		}
	case serve.KindVerify:
		var o verify.SpecOutcome
		if json.Unmarshal(raw, &o) == nil {
			return float64(o.Checked), 0, float64(o.Checked)
		}
	case serve.KindCampaign:
		var o chaos.CampaignOutcome
		if json.Unmarshal(raw, &o) == nil {
			return float64(o.Trials * o.Spec.Frames), 0, float64(o.Trials)
		}
	case serve.KindScript:
		var o serve.ScriptOutcome
		if json.Unmarshal(raw, &o) == nil {
			return float64(o.FramesSent), float64(o.Verdict.Slots), 1
		}
	}
	return 0, 0, 0
}

func (s *service) Do(ctx context.Context, j job, tr *tracer, parent int) outcome {
	spec := j.spec.(*serve.JobSpec)
	var resp, admitted *serve.SubmitResponse
	var err error
	var admitStart time.Time
	if tr != nil {
		// Traced: admission alone first (no wait), then the waiting POST
		// attaches to the admitted job.
		admitStart = time.Now()
		id := tr.begin("http.admit", parent, 0)
		labeled(ctx, tr, "client", func(ctx context.Context) { admitted, err = s.client.Submit(ctx, spec, 0) })
		tr.end(id)
		if err != nil {
			return s.failure(err)
		}
	}
	id := tr.begin("http.submit_wait", parent, 0)
	labeled(ctx, tr, "client", func(ctx context.Context) { resp, err = s.client.Submit(ctx, spec, -1) })
	tr.end(id)
	if err != nil {
		return s.failure(err)
	}
	if admitted == nil {
		admitted = resp
	}
	if resp.Status.State != serve.StateDone {
		return outcome{err: fmt.Errorf("job %s: %s %s", resp.ID.Short(), resp.Status.State, resp.Status.Error)}
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, resp.Status.Result); err != nil {
		return outcome{err: err}
	}
	raw := buf.Bytes()
	if s.e.corrupt != nil && s.e.corrupt(j) {
		raw[len(raw)/2] ^= 1
	}
	// The first POST's admission says whether the job was served from the
	// cache (a traced job's waiting POST finds its own result cached).
	o := outcome{digest: digestOf(raw), raw: raw, cached: admitted.Admission == serve.AdmissionCached.String()}
	if !o.cached {
		o.frames, o.slots, o.patterns = workOf(spec.Kind, raw)
	}
	if tr != nil && !o.cached {
		s.mu.Lock()
		s.pending = append(s.pending, pendingTrace{parent: parent, id: resp.ID, anchor: admitStart})
		s.mu.Unlock()
	}
	return o
}

// pendingTrace is a finished cold job whose service trace the traced run
// fetches after its timed window, so the fetching does not load the
// window it measures.
type pendingTrace struct {
	parent int
	id     serve.Digest
	anchor time.Time
}

// failure classifies a submit error: 429 and 503 are refusals.
func (s *service) failure(err error) outcome {
	var ae *serve.APIError
	if errors.As(err, &ae) && (ae.Code == http.StatusTooManyRequests || ae.Code == http.StatusServiceUnavailable) {
		return outcome{refused: true}
	}
	return outcome{err: err}
}

// traceEvent is one entry of the program's Chrome trace-event JSON.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"` // 0: the service / coordinator track group
}

// fetchTraces pulls each pending job's own trace from the service and
// records its service-track phases (not the per-station protocol
// tracks) as child spans of the job, anchored at the admitting POST.
func (s *service) fetchTraces(ctx context.Context, tr *tracer) error {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, p := range pending {
		if err := s.fetchTrace(ctx, tr, p.parent, p.id, p.anchor); err != nil {
			return err
		}
	}
	return nil
}

func (s *service) fetchTrace(ctx context.Context, tr *tracer, parent int, id serve.Digest, anchor time.Time) error {
	raw, err := s.client.Trace(ctx, id)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	base := tr.at(anchor)
	prefix, ran := "serve.", "attempt"
	if s.fleet {
		prefix, ran = "fleet.", "dispatch"
	}
	// A later cache hit on the same spec replaces the job's record, and
	// its trace then has no run in it: skip those.
	hasRun := false
	for _, ev := range doc.TraceEvents {
		hasRun = hasRun || ev.Name == ran
	}
	if !hasRun {
		return nil
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 0 {
			continue
		}
		tr.add(prefix+ev.Name, parent, base+ev.Ts, base+ev.Ts+ev.Dur)
	}
	if !s.fleet {
		return nil
	}
	var view fleet.JobView
	if err := s.client.GetJSON(ctx, "/v1/jobs/"+string(id), &view); err != nil {
		return err
	}
	if s.views == nil {
		s.views = map[string]fleet.JobView{}
	}
	s.views[string(id)] = view
	return nil
}

// Check runs every distinct spec through serve.Execute directly and
// compares bytes: a single-node result for jobs_http, and the merged
// fleet result against the single-node bytes for jobs_fleet.
func (s *service) Check(ctx context.Context, first map[string]*sample) map[string]string {
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := map[string]string{}
	var mu sync.Mutex
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < s.e.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				smp := first[k]
				want, err := serve.Execute(ctx, smp.job.spec.(*serve.JobSpec), serve.ExecOptions{Parallelism: 1})
				why := ""
				switch {
				case err != nil:
					why = "direct execute: " + err.Error()
				case !bytes.Equal(want, smp.out.raw):
					why = "result differs from a direct serve.Execute of the same spec"
				}
				if why != "" {
					mu.Lock()
					bad[k] = why
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return bad
}

// medianOf returns the median of the named spans' durations (µs).
func medianOf(spans []span, name string) float64 { return quantile(durations(spans, name), 0.5) }

func (s *service) Layers(ctx context.Context, m *measurement, tr *tracer) (map[string]float64, error) {
	if err := s.fetchTraces(ctx, tr); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	out := map[string]float64{}
	out["serve.admit_us"] = medianOf(spans, "http.admit")

	// fleet.plan_us is a direct call on every workload that has specs:
	// flat on jobs_http by prediction.
	var plans []float64
	for _, smp := range m.samples {
		spec := smp.job.spec.(*serve.JobSpec)
		plans = append(plans, timed(func() { _, _ = fleet.NewPlan(spec, shardsPerJob) }))
	}
	out["fleet.plan_us"] = median(plans)

	// The engine under the service: the window's first fresh sweep specs
	// run directly, on the fast and on the reference engine.
	var slots, fastUs, refUs float64
	swept := 0
	for _, smp := range m.samples {
		spec := smp.job.spec.(*serve.JobSpec)
		if spec.Sweep == nil || smp.job.repeat || swept == countJobs {
			continue
		}
		swept++
		var res *sim.SweepOutcome
		var err error
		fastUs += timed(func() { res, err = sim.RunSweepSpec(ctx, *spec.Sweep, 1, nil) })
		if err != nil {
			return nil, err
		}
		for _, p := range res.Points {
			slots += float64(p.Slots)
		}
		withEngine(sim.EngineReference, func() {
			refUs += timed(func() { _, _ = sim.RunSweepSpec(ctx, *spec.Sweep, 1, nil) })
		})
	}
	if swept > 0 {
		out["sim.ns_per_slot"] = fastUs * 1e3 / slots
		out["fastpath.speedup"] = refUs / fastUs
	}

	var stats []serve.Stats
	if s.fleet {
		for _, w := range s.workers {
			st, err := w.Stats(ctx)
			if err != nil {
				return nil, err
			}
			stats = append(stats, *st)
		}
		if err := s.fleetLayers(ctx, m, spans, out); err != nil {
			return nil, err
		}
	} else {
		st, err := s.client.Stats(ctx)
		if err != nil {
			return nil, err
		}
		stats = append(stats, *st)
		for name, phase := range map[string]string{
			"serve.journal_accept_us":  "serve.journal accept",
			"serve.journal_done_us":    "serve.journal done",
			"serve.cache_put_us":       "serve.cache put",
			"serve.checkpoint_save_us": "serve.checkpoint save",
			"serve.queue_wait_us":      "serve.queue wait",
		} {
			out[name] = medianOf(spans, phase)
		}
		execByKind(spans, out)
		if err := s.overheads(ctx, out); err != nil {
			return nil, err
		}
	}
	var fsync, util, hits, lookups, retried, rejected, shards float64
	for _, st := range stats {
		fsync += float64(st.Durability.FsyncP50Us) / float64(len(stats))
		for _, sh := range st.Shards {
			util += sh.Utilization
			shards++
		}
		hits += float64(st.Cache.Hits)
		lookups += float64(st.Cache.Hits + st.Cache.Misses)
		retried += float64(st.Jobs.Retried)
		rejected += float64(st.Jobs.RejectedQueueFull + st.Jobs.RejectedDraining)
	}
	out["serve.fsync_p50_us"] = fsync
	out["serve.shard_utilization"] = util / shards
	if lookups > 0 {
		out["serve.cache_hit_ratio"] = hits / lookups
	}
	out["serve.retried"] = retried
	out["serve.rejected"] = rejected
	if s.fleet {
		var st fleet.Stats
		if err := s.client.GetJSON(ctx, "/v1/stats", &st); err != nil {
			return nil, err
		}
		out["fleet.reassigned"] = float64(st.Shards.Reassigned)
		out["serve.rejected"] += float64(st.Jobs.RejectedBusy + st.Jobs.RejectedDraining)
	}
	return out, nil
}

// execByKind reports the median "attempt" span per job kind.
func execByKind(spans []span, out map[string]float64) {
	kindOf := map[int64]string{}
	for _, sp := range spans {
		if kind, ok := strings.CutPrefix(sp.Name, "job."); ok && sp.Parent == 0 {
			kindOf[sp.Op] = kind
		}
	}
	by := map[string][]float64{}
	for _, sp := range spans {
		if sp.Name == "serve.attempt" {
			k := kindOf[sp.Op]
			by[k] = append(by[k], sp.End-sp.Start)
		}
	}
	for _, k := range []string{"sweep", "campaign", "verify", "script"} {
		out["serve.exec_us."+k] = median(by[k])
	}
}

// overheadSpecs is how many fresh specs the scheduler / HTTP overhead
// comparison uses.
const overheadSpecs = 8

// overheads measures serve.sched_overhead_us (in-process Submit→Done
// minus a direct serve.Execute of the same cold spec) and
// serve.http_overhead_us (the HTTP wait round trip minus an in-process
// Submit of the same, now cached, spec).
func (s *service) overheads(ctx context.Context, out map[string]float64) error {
	var sched, httpRT []float64
	for k := 0; k < overheadSpecs; k++ {
		j := s.mix.build(serve.KindSweep, 1_000_000+k)
		spec := j.spec.(*serve.JobSpec)
		var err error
		exec := timed(func() { _, err = serve.Execute(ctx, spec, serve.ExecOptions{Parallelism: 1}) })
		if err != nil {
			return err
		}
		var job *serve.Job
		inproc := timed(func() {
			job, _, err = s.sched.Submit(spec)
			if err == nil {
				<-job.Done()
			}
		})
		if err != nil {
			return err
		}
		sched = append(sched, inproc-exec)
		cachedIn := timed(func() { _, _, err = s.sched.Submit(spec) })
		if err != nil {
			return err
		}
		viaHTTP := timed(func() { _, err = s.client.Submit(ctx, spec, -1) })
		if err != nil {
			return err
		}
		httpRT = append(httpRT, viaHTTP-cachedIn)
	}
	out["serve.sched_overhead_us"] = median(sched)
	out["serve.http_overhead_us"] = median(httpRT)
	return nil
}

// fleetLayers reports the fleet trace phases, the shard fan-out, the
// coordinator overhead over the slowest shard, and a direct Plan.Merge
// of shard results fetched from the workers.
func (s *service) fleetLayers(ctx context.Context, m *measurement, spans []span, out map[string]float64) error {
	out["fleet.dispatch_us"] = medianOf(spans, "fleet.dispatch")
	out["fleet.worker_queue_us"] = medianOf(spans, "fleet.worker queue")
	out["fleet.worker_run_us"] = medianOf(spans, "fleet.worker run")
	// Coordinator overhead per job: its "fleet job" span (submission to
	// merged result) minus the slowest shard's worker run.
	jobUs, slowestUs := map[int64]float64{}, map[int64]float64{}
	for _, sp := range spans {
		switch sp.Name {
		case "fleet.fleet job":
			jobUs[sp.Op] = sp.End - sp.Start
		case "fleet.worker run":
			slowestUs[sp.Op] = max(slowestUs[sp.Op], sp.End-sp.Start)
		}
	}
	var overhead []float64
	for op, d := range jobUs {
		overhead = append(overhead, d-slowestUs[op])
	}
	specs := map[string]*serve.JobSpec{}
	for _, smp := range m.samples {
		if smp.ok() && !smp.out.cached {
			specs[smp.job.key] = smp.job.spec.(*serve.JobSpec)
		}
	}
	ids := make([]string, 0, len(s.views))
	for id := range s.views {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var merges []float64
	var shards, jobs float64
	for _, id := range ids {
		v := s.views[id]
		if v.Cached || specs[id] == nil {
			continue
		}
		shards += float64(len(v.Shards))
		jobs++
		if len(merges) < 16 && len(v.Shards) > 1 {
			us, err := timeMerge(ctx, specs[id])
			if err != nil {
				return err
			}
			merges = append(merges, us)
		}
	}
	out["fleet.overhead_us"] = median(overhead)
	if jobs > 0 {
		out["fleet.shards_per_job"] = shards / jobs
	}
	out["fleet.merge_us"] = median(merges)
	return nil
}

// timeMerge re-plans a finished fleet job, recomputes its shard results
// with serve.Execute (the bytes a worker returns; the memory-only
// workers may have evicted theirs) and times Plan.Merge on them.
func timeMerge(ctx context.Context, spec *serve.JobSpec) (float64, error) {
	plan, err := fleet.NewPlan(spec, shardsPerJob)
	if err != nil {
		return 0, err
	}
	results := make([]json.RawMessage, len(plan.Shards))
	for i, sh := range plan.Shards {
		if results[i], err = serve.Execute(ctx, sh.Spec, serve.ExecOptions{Parallelism: 1}); err != nil {
			return 0, err
		}
	}
	return timed(func() { _, err = plan.Merge(results) }), err
}
