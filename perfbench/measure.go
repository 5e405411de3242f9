package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what a workload's set-up gets from the driver.
type env struct {
	opts       options
	tmp        string // private scratch directory inside the checkout
	clients    int    // closed-loop clients / intra-job parallelism (nproc)
	setupIndex int
	// corrupt, when set, selects jobs whose output the session damages
	// on purpose (one flipped byte, one pattern short). Tests use it to
	// show that a wrong output is counted as failed, not timed.
	corrupt func(j job) bool
}

// job is one generated input. Equal keys mean equal specs and therefore,
// the simulator being deterministic, equal outputs.
type job struct {
	index  int    // fresh-job index the spec was generated from
	key    string // canonical identity of the spec
	kind   string // sweep, campaign, verify, script, workload, window
	repeat bool   // the spec completed before in this run
	spec   any
}

// outcome is what running one job produced.
type outcome struct {
	digest   string // SHA-256 of the canonical output
	cached   bool   // served from a result cache, nothing simulated
	frames   float64
	slots    float64
	patterns float64
	err      error
	refused  bool   // 429 / 503
	wrong    string // non-empty when the output failed its check
	raw      []byte // canonical output, kept for post-run checks
}

// session is one set-up workload.
type session interface {
	// Fresh returns the i-th fresh job: a pure function of (seed, i).
	Fresh(i int) job
	// Do runs one job; parent is the caller's span (0 when untraced).
	Do(ctx context.Context, j job, tr *tracer, parent int) outcome
	// Check verifies the first output of every distinct spec after the
	// timed window and returns the keys whose output is wrong.
	Check(ctx context.Context, first map[string]*sample) map[string]string
	// Layers computes the per-layer metrics of a traced run.
	Layers(ctx context.Context, m *measurement, tr *tracer) (map[string]float64, error)
	Close()
}

// workload names a workload and how to set it up. Why each workload was
// chosen is in BENCHMARK.json and README.md.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients func(e *env) int
	// repeatFrac is the share of jobs that repeat a completed spec.
	repeatFrac float64
	// golden is the digest of fresh job 0 at DefaultSeed (full size).
	golden string
	setup  func(ctx context.Context, e *env) (session, error)
}

var workloads = []*workload{mcEOF, busLoad32, verifyEnvelope, jobsHTTP, jobsFleet}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// sample is one finished job.
type sample struct {
	job        job
	start, end time.Duration // since the window opened
	latency    time.Duration
	out        outcome
}

// ok reports whether the sample counts towards throughput and latency.
func (s *sample) ok() bool { return s.out.err == nil && !s.out.refused && s.out.wrong == "" }

// measurement is the record of one timed window.
type measurement struct {
	clients   int
	elapsed   time.Duration
	samples   []*sample
	attempted int
	errors    int
	refused   int
	wrong     int
	rssMB     float64
	allocs    uint64 // heap bytes allocated during the window
	fresh     int    // fresh jobs drawn; the next window starts after them
}

func (m *measurement) failed() int { return m.errors + m.refused + m.wrong }

// repeatBlock is the block of input draws the repeat share is exact in.
const repeatBlock = 10

// measure runs the closed loop for the configured seconds: each client
// takes the next input, runs it and waits for its result before taking
// another. Inputs come from one seeded stream: each draw is either a
// repeat of a completed spec (picked by the seeded generator among those
// completed so far) or the next fresh one. Fresh jobs are numbered from
// first on, so a second window on the same session draws new specs
// instead of repeating the first window's.
func measure(ctx context.Context, e *env, w *workload, s session, tr *tracer, first int) *measurement {
	clients := w.clients(e)
	m := &measurement{clients: clients}
	rng := rand.New(rand.NewSource(e.opts.seed*7919 + 17))
	var (
		mu        sync.Mutex
		fresh     = first
		completed []job
		seen      = map[string]bool{}
		opID      int64
	)
	// Every block of repeatBlock draws holds the same number of repeats,
	// at seeded positions, so the repeat share is the same in every
	// window whatever the seed.
	var repeats []bool
	next := func() (job, int64) {
		mu.Lock()
		defer mu.Unlock()
		if len(repeats) == 0 {
			repeats = make([]bool, repeatBlock)
			for _, p := range rng.Perm(repeatBlock)[:int(w.repeatFrac*repeatBlock+0.5)] {
				repeats[p] = true
			}
		}
		repeat := repeats[0]
		repeats = repeats[1:]
		opID++
		if len(completed) > 0 && repeat {
			j := completed[rng.Intn(len(completed))]
			j.repeat = true
			return j, opID
		}
		j := s.Fresh(fresh)
		fresh++
		return j, opID
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(e.opts.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				j, op := next()
				root := tr.begin("job."+j.kind, 0, op)
				t0 := time.Now()
				out := s.Do(ctx, j, tr, root)
				t1 := time.Now()
				tr.end(root)
				smp := &sample{job: j, start: t0.Sub(start), end: t1.Sub(start), latency: t1.Sub(t0), out: out}
				mu.Lock()
				m.samples = append(m.samples, smp)
				if smp.ok() && !seen[j.key] {
					seen[j.key] = true
					j.repeat = false
					completed = append(completed, j)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	m.fresh = fresh
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	m.rssMB = peakRSSMB()
	return m
}

// verify applies every output check and settles the failure counts:
// repeats must reproduce the first output of their spec byte for byte,
// fresh job 0 must match the recorded digest at the default seed, and
// the session's own check must pass for every distinct spec.
func (m *measurement) verify(ctx context.Context, e *env, w *workload, s session) {
	first := map[string]*sample{}
	for _, smp := range m.samples {
		if smp.out.err != nil || smp.out.refused || smp.out.wrong != "" {
			continue
		}
		f, ok := first[smp.job.key]
		if !ok {
			first[smp.job.key] = smp
			continue
		}
		if f.out.digest != smp.out.digest {
			smp.out.wrong = "output differs from an earlier run of the same spec"
		}
	}
	if e.opts.seed == DefaultSeed && !e.opts.tiny && w.golden != "" {
		for _, smp := range m.samples {
			if smp.job.index == 0 && !smp.job.repeat && smp.out.err == nil && smp.out.digest != w.golden {
				smp.out.wrong = fmt.Sprintf("digest %s, recorded %s", smp.out.digest, w.golden)
			}
		}
	}
	bad := s.Check(ctx, first)
	for _, smp := range m.samples {
		if why, ok := bad[smp.job.key]; ok && smp.out.err == nil && !smp.out.refused && smp.out.wrong == "" {
			smp.out.wrong = why
		}
	}
	m.attempted, m.errors, m.refused, m.wrong = len(m.samples), 0, 0, 0
	shown := 0
	for _, smp := range m.samples {
		switch {
		case smp.out.err != nil:
			m.errors++
		case smp.out.refused:
			m.refused++
		case smp.out.wrong != "":
			m.wrong++
		default:
			continue
		}
		if shown < 5 {
			shown++
			fmt.Fprintf(os.Stderr, "  failed %s job %d: err=%v refused=%v wrong=%q\n",
				smp.job.kind, smp.job.index, smp.out.err, smp.out.refused, smp.out.wrong)
		}
	}
}

// slices is the number of equal parts of the timed window that rates and
// tails are computed on. The reported value is the median over the
// parts, so a burst of interference from outside the benchmark in one
// part does not move it.
const slices = 5

// tailSliceSamples is the fewest samples a slice needs for its own tail:
// with fewer per slice, tails are taken over fewer, longer slices.
const tailSliceSamples = 50

// latencies returns the sorted latencies in milliseconds of the correct
// jobs that were (cached) or were not (cold) served without simulating
// and that finished in slice k of n (n = 1: anywhere in the window).
func (m *measurement) latencies(cached bool, k, n int) []float64 {
	var out []float64
	for _, smp := range m.samples {
		if smp.ok() && smp.out.cached == cached && m.sliceOf(smp.end, n) == k {
			out = append(out, float64(smp.latency)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// sliceOf returns which of n equal slices of the window t falls in.
func (m *measurement) sliceOf(t time.Duration, n int) int {
	return min(int(float64(t)/float64(m.elapsed)*float64(n)), n-1)
}

// rates returns, per slice, the correct jobs and the simulated work
// completed per second. A job counts towards the slices its run
// overlaps, in proportion to the overlap.
func (m *measurement) rates() (jobs, frames, slots, patterns [slices]float64) {
	width := m.elapsed / slices
	for _, smp := range m.samples {
		if !smp.ok() {
			continue
		}
		d := smp.end - smp.start
		for k := 0; k < slices; k++ {
			a, b := width*time.Duration(k), width*time.Duration(k+1)
			share := 0.0
			switch {
			case d <= 0:
				if m.sliceOf(smp.end, slices) == k {
					share = 1
				}
			default:
				if ov := min(smp.end, b) - max(smp.start, a); ov > 0 {
					share = float64(ov) / float64(d)
				}
			}
			jobs[k] += share
			frames[k] += share * smp.out.frames
			slots[k] += share * smp.out.slots
			patterns[k] += share * smp.out.patterns
		}
	}
	for k := 0; k < slices; k++ {
		sec := width.Seconds()
		jobs[k] /= sec
		frames[k] /= sec
		slots[k] /= sec
		patterns[k] /= sec
	}
	return
}

// sliceTail returns the median over slices of each slice's tail, and
// the median tail percentile. The window is cut into as many of the
// slices as hold tailSliceSamples samples each; with fewer samples than
// that the tail is the whole window's.
func (m *measurement) sliceTail(cached bool) (percentile, value float64) {
	n := min(max(len(m.latencies(cached, 0, 1))/tailSliceSamples, 1), slices)
	var ps, vs []float64
	for k := 0; k < n; k++ {
		if lat := m.latencies(cached, k, n); len(lat) > 0 {
			p, v := tail(lat)
			ps, vs = append(ps, p), append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, 0
	}
	return median(ps), median(vs)
}

// endToEnd derives the end-to-end metrics.
func (m *measurement) endToEnd(setupS float64) map[string]metric {
	jobs, frames, slots, patterns := m.rates()
	_, coldTail := m.sliceTail(false)
	_, cachedTail := m.sliceTail(true)
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"jobs_per_s":         {median(jobs[:]), "1/s"},
		"frames_per_s":       {median(frames[:]), "1/s"},
		"bitslots_per_s":     {median(slots[:]), "1/s"},
		"patterns_per_s":     {median(patterns[:]), "1/s"},
		"cold_job_p50_ms":    {quantile(m.latencies(false, 0, 1), 0.5), "ms"},
		"cold_job_tail_ms":   {coldTail, "ms"},
		"cached_job_p50_ms":  {quantile(m.latencies(true, 0, 1), 0.5), "ms"},
		"cached_job_tail_ms": {cachedTail, "ms"},
		"peak_rss_mb":        {m.rssMB, "MB"},
	}
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// tail returns the highest percentile of sorted xs that has at least ten
// samples beyond it, and its value. With ten or fewer samples no such
// percentile exists and the maximum (p100) is returned.
func tail(xs []float64) (percentile, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return 100, xs[n-1]
	}
	idx := n - 11
	return 100 * float64(idx+1) / float64(n), xs[idx]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// digestOf is the SHA-256 of a canonical output, in hex.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
