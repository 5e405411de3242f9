// Package fleet is the distributed layer over the simulation service. A
// coordinator is an ordinary serve.Scheduler — same /v1 API, admission,
// cache and journal — whose Runner splits one logical job into
// content-addressed shard jobs (the planner), dispatches them to worker
// mcservd instances (the registry) and deterministically merges the
// shard results (the executor).
//
// The merge invariant is the package's whole contract: for any worker
// count, any shard count, and any interleaving of worker failures and
// reassignments, the merged result is byte-identical to what a single
// node running the logical spec would produce. The invariant holds
// because every shardable kind was given an explicit shard handle whose
// work partitions exactly:
//
//   - sweeps shard by contiguous seed ranges (sim.SweepSpec.Seed/Seeds;
//     every point's RNG is derived from its own seed),
//   - campaigns shard by contiguous trial ranges
//     (chaos.CampaignSpec.TrialOffset; every trial's RNG is derived
//     from the global trial index),
//   - verify enumerations shard by contiguous pattern-index ranges
//     (verify.Spec.PatternStart/PatternCount over the deterministic
//     DFS pre-order of flip patterns).
//
// Shard jobs are ordinary serve.JobSpecs, so they are content-addressed
// by the same digest scheme the workers cache under — a reassigned
// shard re-executes at most once per worker and merges exactly once.
package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Shard is one unit of a fleet plan: a self-contained serve.JobSpec
// covering a contiguous slice of the logical job's work.
type Shard struct {
	// Index is the shard's position in the plan; the merge consumes
	// shard results in index order.
	Index int
	// Spec is the shard's job spec, runnable on any worker.
	Spec *serve.JobSpec
	// Digest is the shard spec's content address — the key shard results
	// are cached and recovered under.
	Digest serve.Digest
}

// Plan is the deterministic decomposition of one logical job. Planning
// is a pure function of (logical spec, shard target): re-planning after
// a coordinator crash reproduces the identical shard table, which is
// what lets recovery re-derive assignments from the journaled logical
// spec plus the spooled shard results alone.
type Plan struct {
	// Spec is the normalized logical job spec.
	Spec *serve.JobSpec
	// Digest is the logical job's content address (what the fleet API
	// serves the job under — the same digest a single node would use).
	Digest serve.Digest
	// Shards are the shard jobs in merge order.
	Shards []Shard
}

// NewPlan decomposes a normalized, valid logical spec into at most
// target shards. Kinds with nothing to split (scripts, stop-at-first
// campaigns, single-seed sweeps) yield a single shard whose spec — and
// therefore digest — equals the logical job's.
func NewPlan(spec *serve.JobSpec, target int) (*Plan, error) {
	if target < 1 {
		target = 1
	}
	_, digest, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	p := &Plan{Spec: spec, Digest: digest}

	var specs []*serve.JobSpec
	switch spec.Kind {
	case serve.KindSweep:
		specs = planSweep(spec, target)
	case serve.KindCampaign:
		specs = planCampaign(spec, target)
	case serve.KindVerify:
		specs, err = planVerify(spec, target)
		if err != nil {
			return nil, err
		}
	case serve.KindScript:
		specs = []*serve.JobSpec{spec}
	default:
		return nil, fmt.Errorf("fleet: unknown job kind %q", spec.Kind)
	}

	p.Shards = make([]Shard, len(specs))
	for i, s := range specs {
		_, d, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		p.Shards[i] = Shard{Index: i, Spec: s, Digest: d}
	}
	return p, nil
}

// ranges splits n work units into at most target contiguous ranges of
// near-equal size, returned as (offset, count) pairs covering [0, n)
// exactly once. n == 0 yields a single empty range so every job has at
// least one shard to carry its (empty) result.
func ranges(n, target int) [][2]int {
	if n <= 0 {
		return [][2]int{{0, n}}
	}
	if target > n {
		target = n
	}
	out := make([][2]int, 0, target)
	base, rem := n/target, n%target
	off := 0
	for i := 0; i < target; i++ {
		count := base
		if i < rem {
			count++
		}
		out = append(out, [2]int{off, count})
		off += count
	}
	return out
}

// planSweep splits the seed range: shard i runs seeds
// [Seed+off, Seed+off+count).
func planSweep(spec *serve.JobSpec, target int) []*serve.JobSpec {
	var out []*serve.JobSpec
	for _, r := range ranges(spec.Sweep.Seeds, target) {
		sub := *spec
		sw := *spec.Sweep
		sw.Seed = spec.Sweep.Seed + int64(r[0])
		sw.Seeds = r[1]
		sub.Sweep = &sw
		out = append(out, &sub)
	}
	return out
}

// planCampaign splits the trial range: shard i runs global trials
// [TrialOffset+off, TrialOffset+off+count). A stop-at-first campaign is
// inherently sequential (trial t+1 runs only if trial t found nothing),
// so it stays one shard.
func planCampaign(spec *serve.JobSpec, target int) []*serve.JobSpec {
	if spec.Campaign.StopAtFirst {
		return []*serve.JobSpec{spec}
	}
	var out []*serve.JobSpec
	for _, r := range ranges(spec.Campaign.Trials, target) {
		sub := *spec
		cs := *spec.Campaign
		cs.TrialOffset = spec.Campaign.TrialOffset + r[0]
		cs.Trials = r[1]
		sub.Campaign = &cs
		out = append(out, &sub)
	}
	return out
}

// planVerify splits the DFS pattern-index range: shard i checks pattern
// indices [PatternStart+off, PatternStart+off+count).
func planVerify(spec *serve.JobSpec, target int) ([]*serve.JobSpec, error) {
	space, err := spec.Verify.PatternSpace()
	if err != nil {
		return nil, err
	}
	// The logical job's own window (usually the whole space) is what gets
	// partitioned; a logical spec that already carries a window splits
	// into sub-windows of it.
	window := space - spec.Verify.PatternStart
	if window < 0 {
		window = 0
	}
	if spec.Verify.PatternCount > 0 && spec.Verify.PatternCount < window {
		window = spec.Verify.PatternCount
	}
	if window == 0 {
		return []*serve.JobSpec{spec}, nil
	}
	var out []*serve.JobSpec
	for _, r := range ranges(window, target) {
		sub := *spec
		vs := *spec.Verify
		vs.PatternStart = spec.Verify.PatternStart + r[0]
		vs.PatternCount = r[1]
		sub.Verify = &vs
		out = append(out, &sub)
	}
	return out, nil
}

// Merge folds the shard results (raw JSON as returned by the workers,
// in shard index order, one per shard) back into the logical job's
// result. The output is byte-identical to serve.Execute running the
// logical spec on one node: results decode into the same typed outcome
// structs the single-node path marshals — integer/string/bool fields
// only, fixed field order — and the aggregate fields (sweep summaries,
// campaign execution counts, verify tallies) recompute from the merged
// parts exactly as a single run computes them from its own.
func (p *Plan) Merge(results []json.RawMessage) (json.RawMessage, error) {
	if len(results) != len(p.Shards) {
		return nil, fmt.Errorf("fleet: merge got %d shard results, want %d", len(results), len(p.Shards))
	}
	for i, r := range results {
		if len(r) == 0 {
			return nil, fmt.Errorf("fleet: merge missing result for shard %d", i)
		}
	}
	if len(results) == 1 {
		// Single shard: the shard spec equals the logical spec (or is its
		// whole work window); its result is the logical result.
		return results[0], nil
	}
	switch p.Spec.Kind {
	case serve.KindSweep:
		return mergeSweep(p.Spec, results)
	case serve.KindCampaign:
		return mergeCampaign(p.Spec, results)
	case serve.KindVerify:
		return mergeVerify(p.Spec, results)
	}
	return nil, fmt.Errorf("fleet: kind %q cannot have %d shards", p.Spec.Kind, len(results))
}

func mergeSweep(spec *serve.JobSpec, results []json.RawMessage) (json.RawMessage, error) {
	merged := sim.SweepOutcome{Spec: *spec.Sweep, Points: make([]sim.PointOutcome, 0, spec.Sweep.Seeds)}
	for i, raw := range results {
		var out sim.SweepOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("fleet: decode sweep shard %d: %w", i, err)
		}
		merged.Points = append(merged.Points, out.Points...)
	}
	merged.Summary = sim.SummarizeOutcomes(merged.Points)
	return marshalMerged(merged)
}

func mergeCampaign(spec *serve.JobSpec, results []json.RawMessage) (json.RawMessage, error) {
	merged := chaos.CampaignOutcome{
		Spec:     *spec.Campaign,
		Trials:   spec.Campaign.Trials,
		Findings: make([]chaos.Artifact, 0),
	}
	for i, raw := range results {
		var out chaos.CampaignOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("fleet: decode campaign shard %d: %w", i, err)
		}
		merged.Executions += out.Executions
		merged.Findings = append(merged.Findings, out.Findings...)
	}
	return marshalMerged(merged)
}

func mergeVerify(spec *serve.JobSpec, results []json.RawMessage) (json.RawMessage, error) {
	merged := verify.SpecOutcome{Spec: *spec.Verify, Violations: make([]string, 0)}
	for i, raw := range results {
		var out verify.SpecOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("fleet: decode verify shard %d: %w", i, err)
		}
		merged.Checked += out.Checked
		if merged.PatternsBy == nil {
			merged.PatternsBy = make([]int, len(out.PatternsBy))
		}
		if len(out.PatternsBy) != len(merged.PatternsBy) {
			return nil, fmt.Errorf("fleet: verify shard %d patternsBy length %d, want %d",
				i, len(out.PatternsBy), len(merged.PatternsBy))
		}
		for k, v := range out.PatternsBy {
			merged.PatternsBy[k] += v
		}
		// Shard violations are in enumeration order and shards cover
		// ascending index ranges, so concatenation preserves the global
		// enumeration order a single node reports.
		merged.Violations = append(merged.Violations, out.Violations...)
	}
	merged.Consistent = len(merged.Violations) == 0
	return marshalMerged(merged)
}

func marshalMerged(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode merged result: %w", err)
	}
	return b, nil
}
