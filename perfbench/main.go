// Command perfbench is the repository's layered benchmark: five seeded
// workloads that drive the simulator and the job service through their
// public APIs, time every layer from outside, and check every output.
//
// Usage, from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload mc_eof --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end set (BENCHMARK.json
// "end_to_end"); with --trace 1 they are the per-layer set, and a
// per-layer table plus the raw spans and CPU profile are written under
// --out. A human-readable summary goes to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// DefaultSeed is the seed the recorded output digests belong to;
// HeldOutSeed is reserved for confirming a claimed gain on inputs the
// change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// defaultSetups is how many timed set-ups setup_s is the median of.
const defaultSetups = 5

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string         // directory for traced-run artifacts and temp dirs
	tiny     bool           // tests: smoke-sized jobs
	setups   int            // tests: timed set-ups (0: defaultSetups)
	corrupt  func(job) bool // tests: jobs whose output is damaged on purpose
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for artifacts and temporary files")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if workloadByName(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, measures it and returns the output line.
func run(ctx context.Context, o options) (*result, error) {
	w := workloadByName(o.workload)
	if o.setups < 1 {
		o.setups = defaultSetups
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env := &env{opts: o, tmp: tmp, clients: runtime.NumCPU(), corrupt: o.corrupt}

	// Set-up is repeated and timed; every set-up but the last is closed
	// again at once, and the last one is measured.
	var setups []float64
	var s session
	for i := 0; i < o.setups; i++ {
		env.setupIndex = i
		start := time.Now()
		s, err = w.setup(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < o.setups-1 {
			s.Close()
		}
	}
	defer s.Close()

	if o.trace {
		return traced(ctx, env, w, s)
	}
	m := measure(ctx, env, w, s, nil, 0)
	m.verify(ctx, env, w, s)
	e2e := m.endToEnd(median(setups))
	logSummary(w.name, o, m, e2e)
	return &result{
		Correct:   m.wrong == 0,
		Attempted: m.attempted,
		Failed:    m.failed(),
		Metrics:   e2e,
	}, nil
}

// logSummary prints the end-to-end numbers with their sample counts and
// tail percentiles to standard error.
func logSummary(name string, o options, m *measurement, e2e map[string]metric) {
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g clients=%d: %d attempted, %d failed (%d errors, %d refused, %d wrong outputs)\n",
		name, o.seed, o.seconds, m.clients, m.attempted, m.failed(), m.errors, m.refused, m.wrong)
	cold, cached := m.latencies(false, 0, 1), m.latencies(true, 0, 1)
	cp, cv := m.sliceTail(false)
	kp, kv := m.sliceTail(true)
	fmt.Fprintf(os.Stderr, "  cold jobs: n=%d p50=%.3fms tail=p%.1f %.3fms; cached jobs: n=%d p50=%.3fms tail=p%.1f %.3fms"+
		" (tails: median over up to %d slices of each slice's tail)\n",
		len(cold), quantile(cold, 0.5), cp, cv, len(cached), quantile(cached, 0.5), kp, kv, slices)
	jobs, _, _, _ := m.rates()
	fmt.Fprintf(os.Stderr, "  jobs_per_s by slice: %.4g\n", jobs)
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-20s %14.6g %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
}
