package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/verify"
)

// protocol is the variant every workload runs: the paper's MajorCAN_5.
const protocol = "majorcan_5"

// countJobs is how many fresh jobs (0..countJobs-1) the traced run
// re-runs to report simulated work counts. A fixed set keeps the counts
// identical across runs, so a speed-only change must leave them alone.
const countJobs = 4

// warmJobs is how many full-size jobs outside the fresh stream each
// in-process set-up runs before the timed window.
const warmJobs = 4

// labeled runs fn under a pprof "layer" label when the run is traced, so
// CPU samples split by the benchmark's own call sites.
func labeled(ctx context.Context, tr *tracer, layer string, fn func(ctx context.Context)) {
	if tr == nil {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("layer", layer), fn)
}

// withEngine runs fn with the process-wide default engine switched, and
// restores the default afterwards.
func withEngine(c sim.EngineChoice, fn func()) {
	_ = sim.SetDefaultEngine(c)
	defer func() { _ = sim.SetDefaultEngine(sim.EngineAuto) }()
	fn()
}

// timed returns fn's host time in microseconds.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// specKey is the content address of a job spec: the SHA-256 of its
// canonical JSON, the same digest the job service files results under.
func specKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated specs always marshal
	}
	return digestOf(b)
}

// simulator is the workload-specific half of an in-process session: it
// runs one spec and returns the canonical output bytes and the work done.
type simulator interface {
	exec(ctx context.Context, j job, tr *tracer, parent int) ([]byte, outcome)
}

// inproc runs jobs by calling the simulator directly. A repeated spec is
// served from the repository's content-addressed result cache
// (serve.Cache, in memory), as an in-process caller holding one would;
// a fresh spec is simulated and its output stored there.
type inproc struct {
	e     *env
	cache *serve.Cache
	sim   simulator
}

func newInproc(e *env, s simulator) *inproc {
	c, _ := serve.NewCache(1<<16, "", nil) // memory only: cannot fail
	return &inproc{e: e, cache: c, sim: s}
}

func (p *inproc) Do(ctx context.Context, j job, tr *tracer, parent int) outcome {
	if j.repeat {
		id := tr.begin("serve.Cache.Get", parent, 0)
		ent, ok := p.cache.Get(serve.Digest(j.key))
		tr.end(id)
		if ok {
			return outcome{digest: digestOf(ent.Result), cached: true}
		}
	}
	raw, o := p.sim.exec(ctx, j, tr, parent)
	if o.err != nil {
		return o
	}
	o.digest = digestOf(raw)
	if p.e.corrupt != nil && p.e.corrupt(j) {
		o.digest = digestOf(append(raw, ' '))
	}
	if o.wrong == "" {
		id := tr.begin("serve.Cache.Put", parent, 0)
		p.cache.Put(serve.Digest(j.key), serve.Entry{Spec: json.RawMessage(`{}`), Result: raw})
		tr.end(id)
	}
	return o
}

// Check re-simulates the first fresh spec after the timed window: its
// output must repeat byte for byte.
func (p *inproc) Check(ctx context.Context, first map[string]*sample) map[string]string {
	for key, smp := range first {
		if smp.job.index != 0 || smp.out.cached {
			continue
		}
		raw, o := p.sim.exec(ctx, smp.job, nil, 0)
		if o.err != nil || digestOf(raw) != smp.out.digest {
			return map[string]string{key: "re-running the spec gave a different output"}
		}
	}
	return nil
}

func (p *inproc) Close() {}

// ---------------------------------------------------------------- mc_eof

// mcEOF: one client; each job is a sim.RunSweepSpec over consecutive
// seeds with parallelism = nproc.
var mcEOF = &workload{
	name:       "mc_eof",
	clients:    func(*env) int { return 1 },
	repeatFrac: 0.2,
	golden:     "edef1c7e7f943af1564bb407d2a9dcdda666dd9a31e79f13b5df92f6c52cfd7c",
	setup: func(ctx context.Context, e *env) (session, error) {
		m := &mcSim{e: e, base: sim.SweepSpec{
			Protocol: protocol, Nodes: 5, Frames: 400, BerStar: 0.02, Seeds: 4,
			EOFOnly: true, ResetCounters: true,
		}, firstSeed: 1 + e.opts.seed*1_000_000}
		if e.opts.tiny {
			m.base.Frames, m.base.Seeds = 20, 2
		}
		m.base.Normalize()
		// Warm-up: warmJobs jobs outside the fresh stream.
		for k := 0; k < warmJobs; k++ {
			warm := m.base
			warm.Seed = -int64((e.setupIndex*warmJobs + k + 1) * warm.Seeds)
			if _, err := sim.RunSweepSpec(ctx, warm, e.clients, nil); err != nil {
				return nil, err
			}
		}
		return &mcSession{inproc: newInproc(e, m), m: m}, nil
	},
}

type mcSim struct {
	e         *env
	base      sim.SweepSpec
	firstSeed int64
	metrics   *obs.Metrics // set while the traced run counts work
}

type mcSession struct {
	*inproc
	m *mcSim
}

func (s *mcSession) Fresh(i int) job {
	spec := s.m.base
	spec.Seed = s.m.firstSeed + int64(i*spec.Seeds)
	key := specKey(&serve.JobSpec{Version: serve.SpecVersion, Kind: serve.KindSweep, Sweep: &spec})
	return job{index: i, key: key, kind: "sweep", spec: spec}
}

func (m *mcSim) exec(ctx context.Context, j job, tr *tracer, parent int) ([]byte, outcome) {
	spec := j.spec.(sim.SweepSpec)
	var tel sim.PointTelemetry
	if reg := m.metrics; reg != nil {
		tel = func(int, int64) (obs.Sink, *obs.Metrics) { return nil, reg.Fork() }
	}
	var out *sim.SweepOutcome
	var err error
	id := tr.begin("sim.RunSweepSpec", parent, 0)
	labeled(ctx, tr, "sim.RunSweepSpec", func(ctx context.Context) {
		out, err = sim.RunSweepSpec(ctx, spec, m.e.clients, tel)
	})
	tr.end(id)
	if err != nil {
		return nil, outcome{err: err}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, outcome{err: err}
	}
	o := outcome{frames: float64(out.Summary.Frames), patterns: float64(out.Summary.Frames)}
	for _, p := range out.Points {
		o.slots += float64(p.Slots)
	}
	if out.Summary.Errors > 0 || out.Summary.Cancelled > 0 || out.Summary.Points != spec.Seeds {
		o.wrong = fmt.Sprintf("sweep summary %+v", out.Summary)
	}
	return raw, o
}

// Layers re-runs fresh jobs 0..countJobs-1: once with an obs.Metrics
// registry for the simulated work counts, then timed on the fast and on
// the reference engine.
func (s *mcSession) Layers(ctx context.Context, m *measurement, tr *tracer) (map[string]float64, error) {
	reg := obs.NewMetrics()
	var frames, slots, flips, fastUs, refUs float64
	for i := 0; i < countJobs; i++ {
		j := s.Fresh(i)
		s.m.metrics = reg
		raw, o := s.m.exec(ctx, j, nil, 0)
		s.m.metrics = nil
		if o.err != nil {
			return nil, o.err
		}
		var out sim.SweepOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, err
		}
		frames += o.frames
		slots += o.slots
		for _, p := range out.Points {
			flips += float64(p.BitFlips)
		}
		spec := j.spec.(sim.SweepSpec)
		fastUs += timed(func() { _, _ = sim.RunSweepSpec(ctx, spec, s.e.clients, nil) })
		withEngine(sim.EngineReference, func() {
			refUs += timed(func() { _, _ = sim.RunSweepSpec(ctx, spec, s.e.clients, nil) })
		})
	}
	snap := reg.Snapshot(0)
	return map[string]float64{
		// Host ns per simulated slot per worker thread.
		"sim.ns_per_slot":            fastUs * 1e3 * float64(s.e.clients) / slots,
		"fastpath.speedup":           refUs / fastUs,
		"sim.slots_per_frame":        slots / frames,
		"errmodel.flips_per_frame":   flips / frames,
		"node.retransmits_per_frame": float64(snap.Retransmits) / frames,
		"core.eof_votes_corrected":   float64(snap.EOFVoteCorrected),
	}, nil
}

// ------------------------------------------------------------ bus_load32

// busLoad32: one client; each job is one serial sim.RunWorkload of one
// seed.
var busLoad32 = &workload{
	name:       "bus_load32",
	clients:    func(*env) int { return 1 },
	repeatFrac: 0.2,
	golden:     "ceaa2011026e61843c23ef4b5ad4bed7168eda143b14672fb9c8413ac29cf996",
	setup: func(ctx context.Context, e *env) (session, error) {
		pol, err := core.ParsePolicy(protocol)
		if err != nil {
			return nil, err
		}
		b := &busSim{base: sim.WorkloadConfig{
			Policy: pol, Nodes: 32, Slots: 16000, Load: 0.9, BerStar: 1e-5,
		}, firstSeed: 1 + e.opts.seed*1_000_000}
		if e.opts.tiny {
			b.base.Slots = 1500
		}
		for k := 0; k < warmJobs; k++ {
			warm := b.base
			warm.Seed = -int64(e.setupIndex*warmJobs + k + 1)
			if _, err := sim.RunWorkload(warm); err != nil {
				return nil, err
			}
		}
		return &busSession{inproc: newInproc(e, b), b: b}, nil
	},
}

type busSim struct {
	base      sim.WorkloadConfig
	firstSeed int64
}

type busSession struct {
	*inproc
	b *busSim
}

// busSpec is the canonical form of a RunWorkload configuration.
type busSpec struct {
	Policy        string
	Nodes, Slots  int
	Load, BerStar float64
	Seed          int64
}

func (s *busSession) Fresh(i int) job {
	cfg := s.b.base
	cfg.Seed = s.b.firstSeed + int64(i)
	key := specKey(busSpec{cfg.Policy.Name(), cfg.Nodes, cfg.Slots, cfg.Load, cfg.BerStar, cfg.Seed})
	return job{index: i, key: key, kind: "workload", spec: cfg}
}

func (b *busSim) exec(ctx context.Context, j job, tr *tracer, parent int) ([]byte, outcome) {
	cfg := j.spec.(sim.WorkloadConfig)
	var res *sim.WorkloadResult
	var err error
	id := tr.begin("sim.RunWorkload", parent, 0)
	labeled(ctx, tr, "sim.RunWorkload", func(context.Context) { res, err = sim.RunWorkload(cfg) })
	tr.end(id)
	if err != nil {
		return nil, outcome{err: err}
	}
	// The canonical outcome is every result field; the config is the key.
	r := *res
	r.Config = sim.WorkloadConfig{}
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, outcome{err: err}
	}
	// RunWorkload reports no slot total; Slots is the simulated span
	// before the drain.
	o := outcome{frames: float64(res.Offered), slots: float64(cfg.Slots), patterns: float64(res.Offered)}
	if res.Offered == 0 || res.TxSuccess == 0 {
		o.wrong = "no traffic"
	}
	return raw, o
}

// Layers times fresh jobs 0..countJobs-1 on the fast and on the
// reference engine. RunWorkload takes no metrics registry and reports no
// flips or retransmissions, so only slots per frame is counted.
func (s *busSession) Layers(ctx context.Context, m *measurement, tr *tracer) (map[string]float64, error) {
	var frames, slots, fastUs, refUs float64
	for i := 0; i < countJobs; i++ {
		cfg := s.Fresh(i).spec.(sim.WorkloadConfig)
		var res *sim.WorkloadResult
		var err error
		fastUs += timed(func() { res, err = sim.RunWorkload(cfg) })
		if err != nil {
			return nil, err
		}
		frames += float64(res.Offered)
		slots += float64(cfg.Slots)
		withEngine(sim.EngineReference, func() {
			refUs += timed(func() { _, _ = sim.RunWorkload(cfg) })
		})
	}
	return map[string]float64{
		"sim.ns_per_slot":     fastUs * 1e3 / slots,
		"fastpath.speedup":    refUs / fastUs,
		"sim.slots_per_frame": slots / frames,
	}, nil
}

// ------------------------------------------------------- verify_envelope

// envelope is the `make verify-envelope` space: MajorCAN_5, 4 stations,
// k <= 5 over the full decision region (25,706,996 patterns).
var envelope = verify.Spec{Protocol: protocol, Stations: 4, MaxFlips: 5}

// strata splits the pattern space into equal parts; each cycle of
// strata fresh windows takes one window from every part, so a run's
// windows sample the whole space. A window starts at a seeded offset
// within ±space/jitterDiv of its part's middle: the cost of a window
// (the enumeration seek grows with its start, and the pattern mix
// differs across the space) then depends on its part, not on the seed.
// The parts come in a fixed order of antithetic pairs (part p, then
// part strata-1-p), so a run that ends mid-cycle is not skewed.
const (
	strata    = 8
	jitterDiv = 400
)

var strataOrder = [strata]int{0, 7, 3, 4, 1, 6, 2, 5}

// verifyEnvelope: one client; each job is a verify.RunSpec window with
// parallelism = nproc.
var verifyEnvelope = &workload{
	name:    "verify_envelope",
	clients: func(*env) int { return 1 },
	// Half the jobs are repeats: windows are slow, and a cached repeat
	// costs microseconds, so this is what gives the cached-job tail
	// enough samples.
	repeatFrac: 0.5,
	golden:     "3d692f7a50b8843e08197c12a33670c05f53d6de19a6f0bf5ec42e8be683f38b",
	setup: func(ctx context.Context, e *env) (session, error) {
		space, err := envelope.PatternSpace()
		if err != nil {
			return nil, err
		}
		v := &verifySim{e: e, space: space, window: 4000}
		if e.opts.tiny {
			v.window = 40
		}
		if v.sites, err = envelopeSites(); err != nil {
			return nil, err
		}
		// Simulated slots per pattern, measured once on a fixed sample
		// spread evenly over the space, turn patterns into bitslots
		// (RunSpec does not report slots).
		var total float64
		for k := 0; k < slotSample; k++ {
			d, err := v.decompose(k*space/slotSample + space/(2*slotSample))
			if err != nil {
				return nil, err
			}
			total += d.slots
		}
		v.slotsPerPattern = total / slotSample
		// Warm-up: one full window near the start of the space (little
		// seek), outside the fresh stream.
		warm := envelope
		warm.PatternStart, warm.PatternCount = e.setupIndex*v.window, v.window
		_, err = verify.RunSpec(ctx, warm, e.clients)
		return &verifySession{inproc: newInproc(e, v), v: v}, err
	},
}

// slotSample is how many patterns the slots-per-pattern estimate uses.
const slotSample = 64

type verifySim struct {
	e               *env
	space           int
	window          int
	sites           []verify.Flip
	slotsPerPattern float64
}

type verifySession struct {
	*inproc
	v *verifySim
}

// envelopeSites lists the (station, EOF position) fault sites in the
// order verify enumerates them.
func envelopeSites() ([]verify.Flip, error) {
	pol, err := core.ParsePolicy(protocol)
	if err != nil {
		return nil, err
	}
	ep, ok := pol.(interface{ EndPos() int })
	if !ok {
		return nil, fmt.Errorf("%s has no decision region", protocol)
	}
	var sites []verify.Flip
	for st := 0; st < envelope.Stations; st++ {
		for p := 1; p <= ep.EndPos(); p++ {
			sites = append(sites, verify.Flip{Station: st, Pos: p})
		}
	}
	return sites, nil
}

func (s *verifySession) Fresh(i int) job {
	v := s.v
	st := strataOrder[i%strata]
	mid := (2*st+1)*v.space/(2*strata) - v.window/2
	jitter := v.space / jitterDiv
	rng := rand.New(rand.NewSource(v.e.opts.seed*15485863 + int64(i)))
	spec := envelope
	spec.PatternStart = mid - jitter + rng.Intn(2*jitter)
	spec.PatternCount = v.window
	key := specKey(&serve.JobSpec{Version: serve.SpecVersion, Kind: serve.KindVerify, Verify: &spec})
	return job{index: i, key: key, kind: "window", spec: spec}
}

func (v *verifySim) exec(ctx context.Context, j job, tr *tracer, parent int) ([]byte, outcome) {
	spec := j.spec.(verify.Spec)
	want := spec.PatternCount
	if v.e.corrupt != nil && v.e.corrupt(j) {
		spec.PatternCount-- // a short window must be caught
	}
	var out *verify.SpecOutcome
	var err error
	id := tr.begin("verify.RunSpec", parent, 0)
	labeled(ctx, tr, "verify.RunSpec", func(ctx context.Context) { out, err = verify.RunSpec(ctx, spec, v.e.clients) })
	tr.end(id)
	if err != nil {
		return nil, outcome{err: err}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, outcome{err: err}
	}
	n := float64(out.Checked)
	o := outcome{frames: n, patterns: n, slots: n * v.slotsPerPattern}
	if !out.Consistent || out.Checked != want {
		o.wrong = fmt.Sprintf("window at %d: consistent=%v checked=%d want %d", spec.PatternStart, out.Consistent, out.Checked, want)
	}
	return raw, o
}

// patternAt returns the pattern with the given index in verify's DFS
// pre-order enumeration of flip sets of size 1..k over sites.
func patternAt(sites []verify.Flip, k, idx int) []verify.Flip {
	n := len(sites)
	// subtree(m, r) counts the patterns in the subtree of a node with m
	// sites left to choose from and r more flips allowed, the node itself
	// included: sum_{j=0..r} C(m, j).
	subtree := func(m, r int) int {
		total, c := 0, 1
		for j := 0; j <= r && j <= m; j++ {
			total += c
			c = c * (m - j) / (j + 1)
		}
		return total
	}
	var p []verify.Flip
	start, remaining := 0, k
	for remaining > 0 {
		for i := start; i < n; i++ {
			size := subtree(n-i-1, remaining-1)
			if idx < size {
				p = append(p, sites[i])
				if idx == 0 {
					return p
				}
				idx--
				start, remaining = i+1, remaining-1
				break
			}
			idx -= size
		}
	}
	return p
}

// decomposition is one pattern run through the same public calls
// verify's runPattern makes, each timed.
type decomposition struct {
	clusterUs, setupUs, runUs, countUs, slots float64
}

func (v *verifySim) decompose(idx int) (decomposition, error) {
	var d decomposition
	pol, err := core.ParsePolicy(protocol)
	if err != nil {
		return d, err
	}
	p := patternAt(v.sites, envelope.MaxFlips, idx)
	var cluster *sim.Cluster
	d.clusterUs = timed(func() {
		cluster, err = sim.NewCluster(sim.ClusterOptions{Nodes: envelope.Stations, Policy: pol})
	})
	if err != nil {
		return d, err
	}
	f := &frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}
	d.setupUs = timed(func() {
		rules := make([]*errmodel.Rule, len(p))
		for i, fl := range p {
			rules[i] = errmodel.AtEOFBit([]int{fl.Station}, fl.Pos, 1)
		}
		cluster.Net.AddDisturber(errmodel.NewScript(rules...))
		err = cluster.Nodes[0].Enqueue(f)
	})
	if err != nil {
		return d, err
	}
	d.runUs = timed(func() { cluster.RunUntilQuiet(6000) })
	d.countUs = timed(func() {
		for i := 0; i < envelope.Stations; i++ {
			_ = cluster.DeliveryCount(i, f)
		}
	})
	d.slots = float64(cluster.Net.Slot())
	return d, nil
}

// eofProbe records the first slot at which any station samples EOF
// position 1.
type eofProbe struct{ first uint64 }

func (p *eofProbe) OnBit(slot uint64, _ bitstream.Level, _, _ []bitstream.Level, views []bus.ViewContext) {
	if p.first != 0 {
		return
	}
	for _, v := range views {
		if v.EOFRel == 1 {
			p.first = slot
			return
		}
	}
}

// prefixSlots returns the slots every pattern simulates before EOF
// position 1, where no pattern has disturbed anything yet.
func prefixSlots() (float64, error) {
	pol, err := core.ParsePolicy(protocol)
	if err != nil {
		return 0, err
	}
	cluster, err := sim.NewCluster(sim.ClusterOptions{Nodes: envelope.Stations, Policy: pol})
	if err != nil {
		return 0, err
	}
	probe := &eofProbe{}
	cluster.Net.AddProbe(probe)
	if err := cluster.Nodes[0].Enqueue(&frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}); err != nil {
		return 0, err
	}
	cluster.RunUntilQuiet(6000)
	return float64(probe.first), nil
}

// decompPerWindow is how many patterns the traced run decomposes at the
// start of each of the first strata fresh windows (one per part of the
// space), so the decomposition samples the whole space.
const decompPerWindow = 500

// Layers decomposes a sample of patterns from every part of the space
// into the public calls each pattern makes, measures the window seek and
// the enumeration overhead around the calls, and times the sample
// windows on both engines.
func (s *verifySession) Layers(ctx context.Context, m *measurement, tr *tracer) (map[string]float64, error) {
	v := s.v
	n := min(decompPerWindow, v.window)
	var sum decomposition
	var seekUs, specUs, fastUs, refUs float64
	for i := 0; i < strata; i++ {
		w := s.Fresh(i).spec.(verify.Spec)
		w.PatternCount = n
		for k := 0; k < n; k++ {
			var d decomposition
			var err error
			id := tr.begin("verify.pattern", 0, -1)
			labeled(ctx, tr, "verify.decompose", func(context.Context) { d, err = v.decompose(w.PatternStart + k) })
			tr.end(id)
			if err != nil {
				return nil, err
			}
			sum.clusterUs += d.clusterUs
			sum.setupUs += d.setupUs
			sum.runUs += d.runUs
			sum.countUs += d.countUs
			sum.slots += d.slots
		}
		seek := w
		seek.PatternCount = 1
		seekUs += timed(func() { _, _ = verify.RunSpec(ctx, seek, 1) })
		specUs += timed(func() { _, _ = verify.RunSpec(ctx, w, 1) })
		fastUs += timed(func() { _, _ = verify.RunSpec(ctx, w, v.e.clients) })
		withEngine(sim.EngineReference, func() {
			refUs += timed(func() { _, _ = verify.RunSpec(ctx, w, v.e.clients) })
		})
	}
	prefix, err := prefixSlots()
	if err != nil {
		return nil, err
	}
	patterns := float64(strata * n)
	decomposed := (sum.clusterUs + sum.setupUs + sum.runUs + sum.countUs) / patterns
	return map[string]float64{
		"sim.ns_per_slot":          sum.runUs * 1e3 / sum.slots,
		"fastpath.speedup":         refUs / fastUs,
		"sim.slots_per_frame":      sum.slots / patterns,
		"verify.cluster_new_us":    sum.clusterUs / patterns,
		"verify.run_us":            sum.runUs / patterns,
		"verify.slots_per_pattern": sum.slots / patterns,
		"verify.prefix_frac":       prefix / (sum.slots / patterns),
		// The seek run also simulates its one pattern.
		"verify.enum_overhead_us": (specUs-seekUs)/float64(strata*(n-1)) - decomposed,
		"verify.window_seek_ms":   seekUs / strata / 1e3,
	}, nil
}
