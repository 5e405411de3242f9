// Command chaos runs declarative fault-injection campaigns on the
// bit-level simulator, shrinks counterexamples to minimal disturbance
// scripts, and replays recorded artifacts bit-for-bit.
//
// Modes:
//
//	chaos -trials 500 -policy can -nodes 5 -out findings/   # campaign
//	chaos -spec job.json                                    # canonical job spec
//	chaos -script script.json                               # run one script
//	chaos -replay findings/finding_0.json                   # verify artifact
//
// A campaign is one job — the flags build the same canonical
// chaos.CampaignSpec the simulation service accepts, and -spec runs a
// service job-spec file (kind campaign or script) directly, so a spec
// executes identically here and through mcservd. SIGINT/SIGTERM stop a
// campaign, a replay or a script run through the job's context — the
// same path a server drain uses.
//
// Replay exits 0 exactly when the artifact reproduces its recorded
// verdict (a recorded violation that replays identically is a success);
// any digest or verdict mismatch exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/serve"
)

// stopProf finalises profiling; exit routes every termination through it.
var stopProf = func() error { return nil }

// logger carries CLI diagnostics; main replaces it per -log-format
// before any mode runs.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "chaos")

func exit(code int) {
	if err := stopProf(); err != nil {
		logger.Error("profiling teardown failed", "err", err)
	}
	os.Exit(code)
}

func fail(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	exit(1)
}

// telemetry bundles the CLI's observability outputs.
type telemetry struct {
	eventsPath  string
	metricsPath string
	events      *obs.Memory
	metrics     *obs.Metrics
	start       time.Time
}

func newTelemetry(eventsPath, metricsPath, label string) *telemetry {
	//lint:allow determinism -- CLI wall-clock for the metrics snapshot header; not simulation state
	t := &telemetry{eventsPath: eventsPath, metricsPath: metricsPath, start: time.Now()}
	if eventsPath != "" {
		t.events = obs.NewMemory()
	}
	if metricsPath != "" {
		t.metrics = obs.NewMetrics()
		t.metrics.SetLabel(label)
	}
	return t
}

func (t *telemetry) chaosTelemetry() chaos.Telemetry {
	var sink obs.Sink
	if t.events != nil {
		sink = t.events
	}
	return chaos.Telemetry{Events: sink, Metrics: t.metrics}
}

// flush writes the collected event log (canonically sorted, run-tagged
// with the given id) and the metrics snapshot.
func (t *telemetry) flush(run int64) {
	if t.events != nil {
		f, err := os.Create(t.eventsPath)
		if err != nil {
			fail("%v", err)
		}
		if err := obs.WriteJSONL(f, run, t.events.Events()); err != nil {
			f.Close()
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
	}
	if t.metrics != nil {
		f, err := os.Create(t.metricsPath)
		if err != nil {
			fail("%v", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		//lint:allow determinism -- CLI wall-clock for the metrics snapshot header; not simulation state
		if err := enc.Encode(t.metrics.Snapshot(time.Since(t.start))); err != nil {
			f.Close()
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
	}
}

// csvList splits a comma-separated flag into trimmed names; "all" (the
// flag default) and the empty string mean no restriction. Validation
// lives in the chaos package (ParseProbes, ParseKinds) — the single
// codec shared with the job-spec layer.
func csvList(csv string) []string {
	if csv == "" || csv == "all" {
		return nil
	}
	parts := strings.Split(csv, ",")
	out := make([]string, 0, len(parts))
	for _, s := range parts {
		out = append(out, strings.TrimSpace(s))
	}
	return out
}

func main() {
	policy := flag.String("policy", "can", "protocol: can, minorcan or majorcan_<m>")
	nodes := flag.Int("nodes", 5, "number of stations")
	frames := flag.Int("frames", 1, "frames broadcast per trial")
	trials := flag.Int("trials", 200, "random scripts to execute")
	maxFaults := flag.Int("maxfaults", 4, "maximum faults per trial")
	seed := flag.Int64("seed", 1, "campaign seed")
	kindsCSV := flag.String("kinds", "all", "comma-separated fault kinds (view-flip, stuck-dominant, mute, crash, bus-off, clock-glitch)")
	probesCSV := flag.String("probes", "all", "comma-separated probes (ab, validity, agreement, at-most-once, non-triviality, total-order, liveness, confinement)")
	rotate := flag.Bool("rotate", false, "rotate the transmitting station")
	autoRecover := flag.Bool("autorecover", false, "enable bus-off recovery on every node")
	warningOff := flag.Bool("warnoff", false, "enable the switch-off-at-warning-limit policy")
	stopFirst := flag.Bool("stopfirst", false, "stop the campaign at the first finding")
	outDir := flag.String("out", "", "directory to write finding artifacts into")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	specPath := flag.String("spec", "", "run a canonical job-spec file (kind campaign or script) instead of the flags")
	scriptPath := flag.String("script", "", "run one script file and print its verdict")
	replayPath := flag.String("replay", "", "replay an artifact and verify it reproduces")
	eventsPath := flag.String("events", "", "write the protocol event stream as JSONL (script and replay modes)")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot as JSON")
	progress := flag.Bool("progress", false, "live trial progress on stderr (campaign mode)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	logFormat := flag.String("log-format", "text", "diagnostic log format: text or json")
	flag.Parse()

	lg, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	logger = lg.With("component", "chaos")

	sp, err := obs.StartProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fail("%v", err)
	}
	stopProf = sp

	// One cancellation path for every mode: SIGINT/SIGTERM stop a
	// campaign, a replay or a script run, exactly as a service drain would.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *replayPath != "":
		replay(ctx, *replayPath, *jsonOut, newTelemetry(*eventsPath, *metricsPath, *policy))
	case *scriptPath != "":
		runScriptFile(ctx, *scriptPath, *jsonOut, newTelemetry(*eventsPath, *metricsPath, *policy))
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail("%v", err)
		}
		js, err := serve.DecodeSpec(data)
		if err != nil {
			fail("%v", err)
		}
		switch js.Kind {
		case serve.KindCampaign:
			campaign(ctx, *js.Campaign, *outDir, *jsonOut, *progress,
				newTelemetry("", *metricsPath, js.Campaign.Protocol))
		case serve.KindScript:
			runScript(ctx, *js.Script, *jsonOut, newTelemetry(*eventsPath, *metricsPath, js.Script.Protocol))
		default:
			fail("chaos runs campaign and script jobs; %s is a %q job (use mcsim or the service)", *specPath, js.Kind)
		}
	default:
		if *eventsPath != "" {
			fail("-events applies to -script and -replay modes only (a campaign's event stream is unbounded)")
		}
		campaign(ctx, chaos.CampaignSpec{
			Protocol:         *policy,
			Nodes:            *nodes,
			Frames:           *frames,
			Trials:           *trials,
			MaxFaults:        *maxFaults,
			Seed:             *seed,
			Kinds:            toKinds(csvList(*kindsCSV)),
			Probes:           csvList(*probesCSV),
			StopAtFirst:      *stopFirst,
			RotateOrigins:    *rotate,
			AutoRecover:      *autoRecover,
			WarningSwitchOff: *warningOff,
		}, *outDir, *jsonOut, *progress, newTelemetry("", *metricsPath, *policy))
	}
}

func toKinds(names []string) []chaos.FaultKind {
	out := make([]chaos.FaultKind, 0, len(names))
	for _, n := range names {
		out = append(out, chaos.FaultKind(n))
	}
	return out
}

func replay(ctx context.Context, path string, jsonOut bool, t *telemetry) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	a, err := chaos.DecodeArtifact(data)
	if err != nil {
		fail("%v", err)
	}
	rr, err := chaos.Replay(ctx, a, t.chaosTelemetry())
	if err != nil {
		fail("%v", err)
	}
	t.flush(int64(a.Trial))
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			DigestMatch  bool          `json:"digestMatch"`
			VerdictMatch bool          `json:"verdictMatch"`
			Verdict      chaos.Verdict `json:"verdict"`
		}{rr.DigestMatch, rr.VerdictMatch, rr.Verdict}); err != nil {
			fail("%v", err)
		}
	} else {
		fmt.Printf("replayed %s: digest %s over %d slots\n", path, rr.Verdict.Digest, rr.Verdict.Slots)
		for _, v := range rr.Verdict.Violations {
			fmt.Printf("  %s\n", v)
		}
		fmt.Printf("digest match: %v, verdict match: %v\n", rr.DigestMatch, rr.VerdictMatch)
	}
	if !rr.Matches() {
		exit(1)
	}
	exit(0)
}

func runScriptFile(ctx context.Context, path string, jsonOut bool, t *telemetry) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var s chaos.Script
	if err := json.Unmarshal(data, &s); err != nil {
		fail("bad script: %v", err)
	}
	if s.Version == 0 {
		s.Version = chaos.ScriptVersion
	}
	runScript(ctx, s, jsonOut, t)
}

func runScript(ctx context.Context, s chaos.Script, jsonOut bool, t *telemetry) {
	r, err := chaos.Run(ctx, s, t.chaosTelemetry())
	if err != nil {
		fail("%v", err)
	}
	t.flush(0)
	verdict := chaos.VerdictOf(r, chaos.DefaultProbes())
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(verdict); err != nil {
			fail("%v", err)
		}
	} else {
		fmt.Printf("script: %d faults, digest %s over %d slots\n",
			len(s.Faults), verdict.Digest, verdict.Slots)
		fmt.Printf("IMOs=%d duplicates=%d orderInversions=%d quiet=%v\n",
			verdict.IMOs, verdict.Duplicates, verdict.OrderInversions, verdict.Quiet)
		if len(verdict.Violations) == 0 {
			fmt.Println("no violations")
		}
		for _, v := range verdict.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if len(verdict.Violations) > 0 {
		exit(2)
	}
	exit(0)
}

func campaign(ctx context.Context, spec chaos.CampaignSpec, outDir string, jsonOut bool, progress bool, t *telemetry) {
	spec.Normalize()
	var prog *obs.Progress
	var onTrial func(int)
	if progress {
		var done atomic.Uint64
		onTrial = func(n int) { done.Store(uint64(n)) }
		total := spec.Trials
		if total == 0 {
			total = 100
		}
		prog = obs.StartProgress(os.Stderr, uint64(total), done.Load, 0, "trials")
	}
	res, err := chaos.RunCampaignSpec(ctx, spec, chaos.Telemetry{Metrics: t.metrics}, onTrial)
	if prog != nil {
		prog.Stop()
	}
	// An interrupted campaign still returns the trials it completed:
	// write their findings and report them, then exit 130.
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && (!interrupted || res == nil) {
		fail("%v", err)
	}
	finish := func() {
		if interrupted {
			fmt.Fprintf(os.Stderr, "chaos: campaign interrupted after %d of %d trials; completed findings kept\n", res.Trials, spec.Trials)
			exit(130)
		}
		exit(0)
	}
	t.flush(0)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fail("%v", err)
		}
		for i, a := range res.Findings {
			data, err := a.Encode()
			if err != nil {
				fail("%v", err)
			}
			path := filepath.Join(outDir, fmt.Sprintf("finding_%03d.json", i))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fail("%v", err)
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail("%v", err)
		}
		finish()
	}
	fmt.Printf("campaign: %d trials, %d simulator executions, %d findings\n",
		res.Trials, res.Executions, len(res.Findings))
	for i, a := range res.Findings {
		fmt.Printf("finding %d (trial %d): %d faults shrunk to %d\n",
			i, a.Trial, a.OriginalFaults, len(a.Script.Faults))
		for _, fault := range a.Script.Faults {
			fmt.Printf("  %s\n", fault)
		}
		for _, v := range a.Verdict.Violations {
			fmt.Printf("  -> %s\n", v)
		}
	}
	finish()
}
