package sim_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/sim"
)

func sweepConfig() sim.MCConfig {
	return sim.MCConfig{
		Policy:        core.NewStandard(),
		Nodes:         4,
		Frames:        60,
		BerStar:       0.02,
		EOFOnly:       true,
		ResetCounters: true,
	}
}

func TestSweepDeterministicPerSeed(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	a := sim.SweepSeeds(context.Background(), sweepConfig(), seeds, 4, nil)
	b := sim.SweepSeeds(context.Background(), sweepConfig(), seeds, 1, nil)
	if len(a) != len(seeds) || len(b) != len(seeds) {
		t.Fatalf("point counts %d/%d, want %d", len(a), len(b), len(seeds))
	}
	for i := range seeds {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("seed %d errored: %v / %v", seeds[i], a[i].Err, b[i].Err)
		}
		if a[i].Seed != seeds[i] {
			t.Errorf("point %d seed = %d, want %d (order must be preserved)", i, a[i].Seed, seeds[i])
		}
		ra, rb := a[i].Result, b[i].Result
		if ra.IMOs != rb.IMOs || ra.Duplicates != rb.Duplicates || ra.BitFlips != rb.BitFlips {
			t.Errorf("seed %d: parallel (%d,%d,%d) != serial (%d,%d,%d)",
				seeds[i], ra.IMOs, ra.Duplicates, ra.BitFlips, rb.IMOs, rb.Duplicates, rb.BitFlips)
		}
	}
}

func TestSweepSummary(t *testing.T) {
	out, err := sim.RunSweepSpec(context.Background(), sim.SweepSpec{
		Protocol: "can", Nodes: 4, Frames: 60, BerStar: 0.02, Seed: 10, Seeds: 4,
		EOFOnly: true, ResetCounters: true,
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := out.Summary
	if s.Points != 4 || s.Errors != 0 || s.Cancelled != 0 {
		t.Fatalf("summary %+v", s)
	}
	if s.Frames != 4*60 {
		t.Errorf("frames = %d, want 240", s.Frames)
	}
	if s.Duplicates == 0 {
		t.Error("standard CAN at this rate should show duplicates across 240 frames")
	}
	if s.String() == "" {
		t.Error("summary string must not be empty")
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := sweepConfig()
	bad.Nodes = 2 // invalid
	points := sim.SweepSeeds(context.Background(), bad, []int64{1, 2}, 2, nil)
	for _, p := range points {
		if p.Err == nil || p.Result != nil {
			t.Errorf("seed %d: err %v, result %v; want a configuration error", p.Seed, p.Err, p.Result)
		}
	}
}

func TestSweepParallelismClamp(t *testing.T) {
	points := sim.SweepSeeds(context.Background(), sweepConfig(), []int64{1}, 0, nil) // clamped to 1
	if len(points) != 1 || points[0].Err != nil {
		t.Fatalf("points %+v", points)
	}
}

func TestSweepCancelledContextSkipsPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seeds := []int64{1, 2, 3}
	points := sim.SweepSeeds(ctx, sweepConfig(), seeds, 2, nil)
	if len(points) != len(seeds) {
		t.Fatalf("got %d points, want %d", len(points), len(seeds))
	}
	for _, p := range points {
		if !errors.Is(p.Err, context.Canceled) {
			t.Errorf("seed %d: err %v, want context.Canceled", p.Seed, p.Err)
		}
	}
}

func TestSweepSharedFlipCounter(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	points := sim.SweepSeeds(context.Background(), sweepConfig(), seeds, 2, nil)
	var flips uint64
	for _, p := range points {
		if p.Err != nil {
			t.Fatalf("seed %d: %v", p.Seed, p.Err)
		}
		flips += p.Result.BitFlips
	}
	if flips == 0 {
		t.Fatal("sweep at ber*=0.02 must record bit flips")
	}
	// The per-point flips come from forks of one shared parent; they must
	// match what a dedicated disturber per point produces.
	for _, p := range points {
		cfg := sweepConfig()
		cfg.Seed = p.Seed
		cfg.Disturber = errmodel.NewRandom(cfg.BerStar, p.Seed)
		solo, err := sim.MonteCarlo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if solo.BitFlips != p.Result.BitFlips || solo.IMOs != p.Result.IMOs {
			t.Errorf("seed %d: solo (%d flips, %d IMOs) != sweep (%d flips, %d IMOs)",
				p.Seed, solo.BitFlips, solo.IMOs, p.Result.BitFlips, p.Result.IMOs)
		}
	}
}
