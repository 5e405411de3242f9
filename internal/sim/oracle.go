package sim

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// This file is the differential oracle for the fast bit-slot engine
// (internal/bus/fastpath, DESIGN.md §15): the same sweep spec runs under
// the reference per-slot loop and under the fast engine, and every
// observable is compared — point outcomes (slots, flips, IMO/duplicate
// counts, Atomic Broadcast verdicts) and the full protocol event streams.
// "Fast" is only admissible because this comparison is byte-exact.

// EngineDivergence pinpoints the first observable difference between a
// reference and a fast run of the same sweep point.
type EngineDivergence struct {
	// Seed is the diverging point's seed.
	Seed int64
	// Kind is "events" (the streams differ, at Index/Slot) or "outcome"
	// (the streams agree but the aggregated point outcome differs).
	Kind string
	// Slot is the bit slot of the first diverging event (Kind "events").
	Slot uint64
	// Index is the position of the first diverging event in the streams.
	Index int
	// Reference and Fast render each engine's side of the divergence:
	// the event at Index (or "<none>" past a shorter stream), or the
	// whole point outcome.
	Reference string
	Fast      string
}

func (d *EngineDivergence) String() string {
	if d.Kind == "events" {
		return fmt.Sprintf("seed %d: event %d (slot %d) differs\n  reference: %s\n  fast:      %s",
			d.Seed, d.Index, d.Slot, d.Reference, d.Fast)
	}
	return fmt.Sprintf("seed %d: point outcome differs\n  reference: %s\n  fast:      %s",
		d.Seed, d.Reference, d.Fast)
}

// EngineComparison is the oracle's verdict over a whole sweep.
type EngineComparison struct {
	// Seeds is the number of points compared.
	Seeds int
	// Events is the total number of events compared (reference side).
	Events int
	// Divergence is the first difference found, or nil when every point
	// is byte-identical under both engines.
	Divergence *EngineDivergence
}

// Identical reports whether the engines agreed on every observable.
func (c *EngineComparison) Identical() bool { return c.Divergence == nil }

// CompareEngines runs the sweep spec under both engines and returns the
// first divergence between their observable behaviours, if any. Each
// point's full event stream is captured in memory, so use experiment-
// sized (not production-sized) specs.
func CompareEngines(ctx context.Context, spec SweepSpec, parallelism int) (*EngineComparison, error) {
	spec.Normalize()
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	seeds := spec.SeedList()

	run := func(choice EngineChoice) ([]SweepPoint, []*obs.Memory, error) {
		c := cfg
		c.Engine = choice
		mems := make([]*obs.Memory, len(seeds))
		for i := range mems {
			mems[i] = obs.NewMemory()
		}
		tel := func(i int, _ int64) (obs.Sink, *obs.Metrics) { return mems[i], nil }
		pts := SweepSeeds(ctx, c, seeds, parallelism, tel)
		for _, p := range pts {
			if p.Err != nil {
				return nil, nil, fmt.Errorf("sim: engine %q seed %d: %w", choice, p.Seed, p.Err)
			}
		}
		return pts, mems, nil
	}
	refPts, refMems, err := run(EngineReference)
	if err != nil {
		return nil, err
	}
	fastPts, fastMems, err := run(EngineFast)
	if err != nil {
		return nil, err
	}

	cmp := &EngineComparison{Seeds: len(seeds)}
	for i, seed := range seeds {
		re, fe := refMems[i].Events(), fastMems[i].Events()
		cmp.Events += len(re)
		n := len(re)
		if len(fe) < n {
			n = len(fe)
		}
		for k := 0; k < n; k++ {
			if re[k] != fe[k] {
				cmp.Divergence = &EngineDivergence{
					Seed: seed, Kind: "events", Slot: re[k].Slot, Index: k,
					Reference: re[k].String(), Fast: fe[k].String(),
				}
				return cmp, nil
			}
		}
		if len(re) != len(fe) {
			d := &EngineDivergence{Seed: seed, Kind: "events", Index: n, Reference: "<none>", Fast: "<none>"}
			if len(re) > n {
				d.Slot, d.Reference = re[n].Slot, re[n].String()
			} else {
				d.Slot, d.Fast = fe[n].Slot, fe[n].String()
			}
			cmp.Divergence = d
			return cmp, nil
		}
		ro, fo := outcomeOf(refPts[i]), outcomeOf(fastPts[i])
		if ro != fo {
			cmp.Divergence = &EngineDivergence{
				Seed: seed, Kind: "outcome",
				Reference: fmt.Sprintf("%+v", ro), Fast: fmt.Sprintf("%+v", fo),
			}
			return cmp, nil
		}
	}
	return cmp, nil
}
