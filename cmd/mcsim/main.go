// Command mcsim runs Monte Carlo consistency experiments on the bit-level
// simulator: a stream of frames is broadcast under the spatial random
// error model (ber* = ber/N) and every frame's fate at every receiver is
// classified (delivered, duplicated, omitted).
//
// A run is one sweep job — the flags build the same canonical
// sim.SweepSpec the simulation service accepts, and -spec runs a service
// job-spec file directly, so a spec executes identically here and through
// mcservd. A single run is a sweep of one seed. SIGINT/SIGTERM cancel
// through the job's context — the same path a server drain uses — so
// running points finish, unstarted points are skipped, and the partial
// aggregate is flushed instead of dying silently.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	policyName := flag.String("policy", "can", "protocol: can, minorcan or majorcan_<m>")
	nodes := flag.Int("nodes", 5, "number of stations")
	frames := flag.Int("frames", 1000, "frames to broadcast")
	berStar := flag.Float64("berstar", 0.01, "per-node per-bit view flip probability (ber* = ber/N)")
	seed := flag.Int64("seed", 1, "random seed")
	eofOnly := flag.Bool("eofonly", true, "restrict errors to the end-of-frame region (importance sampling)")
	rotate := flag.Bool("rotate", false, "rotate the transmitting station")
	reset := flag.Bool("reset", true, "reset error counters between frames (keep all nodes error-active)")
	sweep := flag.Int("sweep", 0, "run this many seeds (seed, seed+1, ...) in parallel and aggregate")
	specPath := flag.String("spec", "", "run a canonical job-spec file (kind sweep) instead of the flags")
	parallel := flag.Int("parallel", 4, "concurrent simulations during a sweep")
	jsonOut := flag.Bool("json", false, "emit the machine-readable sweep outcome instead of text")
	eventsPath := flag.String("events", "", "write the protocol event stream as JSONL to this file")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot as JSON to this file")
	progress := flag.Bool("progress", false, "live frames/sec and ETA on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	logFormat := flag.String("log-format", "text", "diagnostic log format: text or json")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsim: %v\n", err)
		os.Exit(2)
	}
	logger = logger.With("component", "mcsim")

	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		logger.Error("profiling setup failed", "err", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			logger.Error("profiling teardown failed", "err", err)
		}
		os.Exit(code)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		exit(1)
	}

	// One cancellation path for every mode: SIGINT/SIGTERM cancel the job
	// context exactly as a service drain timeout would.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, err := resolveSpec(*specPath, sim.SweepSpec{
		Protocol:      *policyName,
		Nodes:         *nodes,
		Frames:        *frames,
		BerStar:       *berStar,
		Seed:          *seed,
		Seeds:         max(*sweep, 1),
		EOFOnly:       *eofOnly,
		ResetCounters: *reset,
		RotateOrigins: *rotate,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if err := spec.Validate(); err != nil {
		fatalf("%v", err)
	}
	seeds := spec.SeedList()

	var metrics *obs.Metrics
	if *metricsPath != "" || *progress {
		metrics = obs.NewMetrics()
		metrics.SetLabel(spec.Protocol)
	}
	//lint:allow determinism -- CLI wall-clock for the metrics snapshot header; not simulation state
	start := time.Now()

	// Per-point telemetry: an in-memory event sink per seed (merged in
	// seed order afterwards, so the JSONL output is byte-identical for
	// any -parallel value) and a fork of the shared metrics registry
	// (so -progress can read live totals while workers run).
	var mems []*obs.Memory
	var tel sim.PointTelemetry
	if *eventsPath != "" || metrics != nil {
		mems = make([]*obs.Memory, len(seeds))
		for i := range mems {
			mems[i] = obs.NewMemory()
		}
		tel = func(i int, _ int64) (obs.Sink, *obs.Metrics) {
			var m *obs.Metrics
			if metrics != nil {
				m = metrics.Fork()
			}
			if *eventsPath == "" {
				return nil, m
			}
			return mems[i], m
		}
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.StartProgress(os.Stderr, uint64(spec.Seeds)*uint64(spec.Frames), metrics.FramesSent, 0, "frames")
	}
	outcome, err := sim.RunSweepSpec(ctx, spec, *parallel, tel)
	if prog != nil {
		prog.Stop()
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *eventsPath != "" {
		if err := writeSweepEvents(*eventsPath, seeds, mems); err != nil {
			fatalf("%v", err)
		}
	}
	if *metricsPath != "" {
		//lint:allow determinism -- CLI wall-clock for the metrics snapshot header; not simulation state
		if err := writeMetrics(*metricsPath, metrics, time.Since(start)); err != nil {
			fatalf("%v", err)
		}
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outcome); err != nil {
			fatalf("%v", err)
		}
	case spec.Seeds == 1 && !outcome.Points[0].Cancelled:
		printSingle(spec, outcome.Points[0])
	default:
		fmt.Printf("policy=%s nodes=%d frames/seed=%d ber*=%g eofOnly=%v seeds=%d..%d\n",
			spec.Protocol, spec.Nodes, spec.Frames, spec.BerStar, spec.EOFOnly,
			spec.Seed, spec.Seed+int64(spec.Seeds)-1)
		fmt.Println(outcome.Summary)
	}
	if outcome.Summary.Cancelled > 0 {
		fmt.Printf("interrupted: %d of %d points skipped; aggregate covers completed points only\n",
			outcome.Summary.Cancelled, outcome.Summary.Points)
		exit(130)
	}
	exit(0)
}

// resolveSpec picks the job description: a canonical job-spec file when
// -spec is given (the same codec mcservd and mcctl use), the flag-built
// spec otherwise.
func resolveSpec(path string, fromFlags sim.SweepSpec) (sim.SweepSpec, error) {
	if path == "" {
		fromFlags.Normalize()
		return fromFlags, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return sim.SweepSpec{}, err
	}
	js, err := serve.DecodeSpec(data)
	if err != nil {
		return sim.SweepSpec{}, err
	}
	if js.Kind != serve.KindSweep {
		return sim.SweepSpec{}, fmt.Errorf("mcsim runs %q jobs; %s is a %q job (use the chaos CLI or the service)",
			serve.KindSweep, path, js.Kind)
	}
	return *js.Sweep, nil
}

// printSingle renders a one-seed run in the traditional detailed form.
func printSingle(spec sim.SweepSpec, p sim.PointOutcome) {
	fmt.Printf("policy=%s nodes=%d frames=%d ber*=%g eofOnly=%v seed=%d\n",
		spec.Protocol, spec.Nodes, p.FramesSent, spec.BerStar, spec.EOFOnly, p.Seed)
	fmt.Printf("slots simulated:        %d\n", p.Slots)
	fmt.Printf("bit flips injected:     %d\n", p.BitFlips)
	fmt.Printf("inconsistent omissions: %d (%.3e per frame)\n", p.IMOs, rate(p.IMOs, p.FramesSent))
	fmt.Printf("double receptions:      %d (%.3e per frame)\n", p.Duplicates, rate(p.Duplicates, p.FramesSent))
	fmt.Printf("lost everywhere:        %d\n", p.LostEverywhere)
	fmt.Printf("incomplete frames:      %d\n", p.Incomplete)
	if p.AtomicBroadcast {
		fmt.Println("atomic broadcast:       held for every frame")
	} else {
		fmt.Println("atomic broadcast:       VIOLATED")
	}
}

func rate(n, frames int) float64 {
	if frames == 0 {
		return 0
	}
	return float64(n) / float64(frames)
}

// writeMetrics writes a registry snapshot as indented JSON.
func writeMetrics(path string, m *obs.Metrics, elapsed time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Snapshot(elapsed)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSweepEvents serialises per-point event logs to one JSONL file in
// seed order, each point's events canonically sorted and tagged with its
// seed, so the merged log is byte-identical for any worker count.
func writeSweepEvents(path string, seeds []int64, mems []*obs.Memory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, mem := range mems {
		if mem == nil {
			continue
		}
		if err := obs.WriteJSONL(f, seeds[i], mem.Events()); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
