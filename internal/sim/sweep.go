package sim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/errmodel"
	"repro/internal/obs"
)

// PointTelemetry hands each sweep point its telemetry: an event sink
// (typically a per-point obs.Memory, serialised in seed order after the
// sweep for deterministic merged logs) and a metrics registry (typically
// a Fork of one shared parent, whose totals then stay live-readable for
// progress display). Either return value may be nil.
type PointTelemetry func(index int, seed int64) (obs.Sink, *obs.Metrics)

// SweepPoint is one Monte Carlo run of a sweep.
type SweepPoint struct {
	// Seed is the RNG seed of this point.
	Seed int64
	// Result is the run's outcome (nil if Err is set).
	Result *MCResult
	// Err reports a configuration failure for this point, or the context's
	// error for points skipped after cancellation.
	Err error
}

// SweepSeeds runs the same Monte Carlo configuration across many seeds in
// parallel and returns the points in seed order. Parallelism bounds the
// number of concurrent simulations (values < 1 mean 1). Every simulation
// is fully independent — the simulator shares no mutable state between
// clusters — so the sweep is deterministic regardless of scheduling.
//
// Points not yet started when ctx is cancelled are skipped and carry
// ctx's error, while running points complete normally, so a partial
// aggregate remains valid.
//
// When cfg.Disturber is nil and cfg.GlobalModel is false, each point gets a
// per-worker fork of one shared errmodel.Random seeded with the point's
// seed — the same stream MonteCarlo would construct itself — so the shared
// parent's Flips() can be read live while the sweep runs.
//
// When tel is non-nil it is called once per point (before the point
// starts) and the returned sink/registry replace cfg.Events/cfg.Metrics
// for that point's run.
func SweepSeeds(ctx context.Context, cfg MCConfig, seeds []int64, parallelism int, tel PointTelemetry) []SweepPoint {
	if parallelism < 1 {
		parallelism = 1
	}
	var parent *errmodel.Random
	if cfg.Disturber == nil && !cfg.GlobalModel {
		parent = errmodel.NewRandom(cfg.BerStar, cfg.Seed)
	}
	points := make([]SweepPoint, len(seeds))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, seed := range seeds {
		i, seed := i, seed
		if ctx.Err() != nil {
			points[i] = SweepPoint{Seed: seed, Err: ctx.Err()}
			continue
		}
		select {
		case <-ctx.Done():
			points[i] = SweepPoint{Seed: seed, Err: ctx.Err()}
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c := cfg
			c.Seed = seed
			if parent != nil {
				c.Disturber = parent.Fork(seed)
			}
			if tel != nil {
				c.Events, c.Metrics = tel(i, seed)
			}
			res, err := MonteCarlo(c)
			points[i] = SweepPoint{Seed: seed, Result: res, Err: err}
		}()
	}
	wg.Wait()
	return points
}

// SweepSummary aggregates a sweep. The JSON field names are part of the
// job-result contract served by the simulation service.
type SweepSummary struct {
	Points     int    `json:"points"`
	Frames     int    `json:"frames"`
	IMOs       int    `json:"imos"`
	Duplicates int    `json:"duplicates"`
	Flips      uint64 `json:"flips"`
	Errors     int    `json:"errors"`    // always 0: a point that fails to run fails the sweep; kept in the wire format
	Cancelled  int    `json:"cancelled"` // points skipped because the sweep was cancelled
}

// IMORate returns IMOs per frame across the sweep.
func (s SweepSummary) IMORate() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.IMOs) / float64(s.Frames)
}

// DuplicateRate returns duplicates per frame across the sweep.
func (s SweepSummary) DuplicateRate() float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(s.Duplicates) / float64(s.Frames)
}

func (s SweepSummary) String() string {
	return fmt.Sprintf("%d points, %d frames: %d IMOs (%.3e/frame), %d duplicates (%.3e/frame)",
		s.Points, s.Frames, s.IMOs, s.IMORate(), s.Duplicates, s.DuplicateRate())
}
