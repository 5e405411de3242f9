package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"
)

// layerMetric is one per-layer metric: its unit and the end-to-end
// metric (on the named workloads) it is expected to move.
type layerMetric struct {
	name, unit, moves string
}

// perLayer lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A workload that does not exercise a layer
// reports 0 for it (README.md lists which workload exercises which).
var perLayer = []layerMetric{
	{"sim.ns_per_slot", "ns", "bitslots_per_s (mc_eof, bus_load32)"},
	{"fastpath.speedup", "ratio", "where engine work can pay: >>1 mc_eof, ~1 verify_envelope"},
	{"sim.slots_per_frame", "count", "identity check: a speed-only change leaves it unchanged"},
	{"errmodel.flips_per_frame", "count", "identity check"},
	{"node.retransmits_per_frame", "count", "identity check"},
	{"core.eof_votes_corrected", "count", "identity check"},
	{"verify.cluster_new_us", "us", "patterns_per_s (verify_envelope)"},
	{"verify.run_us", "us", "patterns_per_s (verify_envelope)"},
	{"verify.slots_per_pattern", "count", "patterns_per_s (verify_envelope)"},
	{"verify.prefix_frac", "ratio", "patterns_per_s: the share a prefix snapshot removes"},
	{"verify.enum_overhead_us", "us", "patterns_per_s (verify_envelope)"},
	{"verify.window_seek_ms", "ms", "patterns_per_s; cold_job_p50_ms (jobs_fleet verify shards)"},
	{"serve.admit_us", "us", "cold_job_p50_ms, cached_job_tail_ms (jobs_http)"},
	{"serve.journal_accept_us", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.journal_done_us", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.cache_put_us", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.checkpoint_save_us", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.fsync_p50_us", "us", "cold_job_p50_ms (jobs_http, jobs_fleet)"},
	{"serve.queue_wait_us", "us", "cold_job_tail_ms, jobs_per_s (jobs_http)"},
	{"serve.shard_utilization", "ratio", "cold_job_tail_ms, jobs_per_s"},
	{"serve.exec_us.sweep", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.exec_us.campaign", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.exec_us.verify", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.exec_us.script", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.cache_hit_ratio", "ratio", "cached_job_p50_ms"},
	{"serve.retried", "count", "failed jobs"},
	{"serve.rejected", "count", "failed jobs"},
	{"serve.sched_overhead_us", "us", "cold_job_p50_ms (jobs_http)"},
	{"serve.http_overhead_us", "us", "cached_job_p50_ms (jobs_http)"},
	{"fleet.plan_us", "us", "cold_job_p50_ms, jobs_per_s (jobs_fleet); flat on jobs_http"},
	{"fleet.merge_us", "us", "cold_job_p50_ms, jobs_per_s (jobs_fleet)"},
	{"fleet.dispatch_us", "us", "cold_job_p50_ms, jobs_per_s (jobs_fleet)"},
	{"fleet.worker_queue_us", "us", "cold_job_p50_ms, jobs_per_s (jobs_fleet)"},
	{"fleet.worker_run_us", "us", "cold_job_p50_ms, jobs_per_s (jobs_fleet)"},
	{"fleet.overhead_us", "us", "cold_job_p50_ms, jobs_per_s (jobs_fleet)"},
	{"fleet.shards_per_job", "count", "cold_job_p50_ms, jobs_per_s (jobs_fleet)"},
	{"fleet.reassigned", "count", "failed jobs (jobs_fleet)"},
	{"alloc_bytes_per_op", "bytes", "peak_rss_mb"},
	{"failed_frac", "ratio", "failed / attempted (every workload)"},
	{"trace.overhead_frac", "ratio", "tracing cost: 1 - traced jobs_per_s / untraced jobs_per_s"},
}

func init() {
	for _, m := range cpuModules {
		perLayer = append(perLayer, layerMetric{"cpu." + m, "ratio", "self-time share of CPU samples in the traced window"})
	}
}

// traced performs the traced run: an untraced window for the baseline,
// the same window again with spans recorded and a CPU profile taken,
// then the workload's per-layer probes. It prints the per-layer metrics
// and writes spans, profile and table under <out>/trace/.
func traced(ctx context.Context, e *env, w *workload, s session) (*result, error) {
	base := measure(ctx, e, w, s, nil, 0)
	base.verify(ctx, e, w, s)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m := measure(ctx, e, w, s, tr, base.fresh)
	pprof.StopCPUProfile()
	m.verify(ctx, e, w, s)

	layers, err := s.Layers(ctx, m, tr)
	if err != nil {
		return nil, fmt.Errorf("%s per-layer probes: %w", w.name, err)
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	byModule, byLabel, cpuNanos := cpuShares(samples)
	for _, mod := range cpuModules {
		layers["cpu."+mod] = byModule[mod]
	}
	attempted, failed := base.attempted+m.attempted, base.failed()+m.failed()
	layers["failed_frac"] = float64(failed) / float64(max(attempted, 1))
	layers["alloc_bytes_per_op"] = float64(base.allocs) / float64(max(base.attempted, 1))
	baseE2E, tracedE2E := base.endToEnd(0), m.endToEnd(0)
	if v := baseE2E["jobs_per_s"].Value; v > 0 {
		layers["trace.overhead_frac"] = 1 - tracedE2E["jobs_per_s"].Value/v
	}

	metrics := map[string]metric{}
	for _, lm := range perLayer {
		metrics[lm.name] = metric{Value: layers[lm.name], Unit: lm.unit}
	}
	dir := filepath.Join(e.opts.out, "trace", fmt.Sprintf("%s-seed%d", w.name, e.opts.seed))
	if err := writeTraceArtifacts(dir, tr, prof.Bytes(), metrics); err != nil {
		return nil, err
	}
	var report bytes.Buffer
	writeReport(&report, w, e, tr.snapshot(), byModule, byLabel, cpuNanos, metrics, baseE2E, tracedE2E)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), report.Bytes(), 0o644); err != nil {
		return nil, err
	}
	os.Stderr.Write(report.Bytes())
	return &result{
		Correct:   base.wrong == 0 && m.wrong == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// waitSpans are the program's trace phases in which a job waits for a
// worker rather than runs; every other span is work or a call that
// contains work.
var waitSpans = map[string]bool{
	"serve.queue wait":   true,
	"fleet.plan + queue": true,
	"fleet.worker queue": true,
}

func writeTraceArtifacts(dir string, tr *tracer, prof []byte, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(tr.snapshot())
	if err != nil {
		return err
	}
	met, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{"spans.json": spans, "cpu.pprof": prof, "per_layer.json": met} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeReport renders the per-layer table of one traced run: span self
// time and counts per layer, CPU shares per module and per benchmark
// call site, every per-layer metric with the end-to-end metric it should
// move, and the tracing overhead on every end-to-end metric.
func writeReport(out io.Writer, w *workload, e *env, spans []span, byModule, byLabel map[string]float64,
	cpuNanos int64, metrics map[string]metric, base, traced map[string]metric) {
	fmt.Fprintf(out, "== %s (seed %d, %gs per window): traced run\n", w.name, e.opts.seed, e.opts.seconds)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer (span)\tkind\tcount\ttotal ms\tself ms\tchild ms\tmedian us\t")
	for _, st := range layerStats(spans) {
		kind := "busy"
		if waitSpans[st.Name] {
			kind = "waiting"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t\n", st.Name, kind, st.Count,
			st.TotalUs/1e3, st.SelfUs/1e3, (st.TotalUs-st.SelfUs)/1e3, st.MedUs)
	}
	tw.Flush()
	fmt.Fprintf(out, "CPU self time by module (%.2fs of samples):\n", float64(cpuNanos)/1e9)
	printShares(out, byModule)
	fmt.Fprintln(out, "CPU by benchmark call site (pprof label \"layer\"):")
	printShares(out, byLabel)
	fmt.Fprintln(out, "per-layer metrics (base of each ratio in the 'moves' column):")
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, lm := range perLayer {
		if strings.HasPrefix(lm.name, "cpu.") {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g %s\t-> %s\n", lm.name, metrics[lm.name].Value, lm.unit, lm.moves)
	}
	tw.Flush()
	fmt.Fprintln(out, "tracing overhead (traced - untraced window):")
	names := make([]string, 0, len(base))
	for k := range base {
		if k != "setup_s" {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, k := range names {
		fmt.Fprintf(tw, "  %s\t%.6g\t- %.6g\t= %+.6g %s\n", k, traced[k].Value, base[k].Value, traced[k].Value-base[k].Value, base[k].Unit)
	}
	tw.Flush()
}

func printShares(out io.Writer, shares map[string]float64) {
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	for _, k := range keys {
		if shares[k] >= 0.001 {
			fmt.Fprintf(out, "  %-28s %5.1f%%\n", k, 100*shares[k])
		}
	}
}
