package sim_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sweepJSONL runs a telemetry-instrumented sweep and serialises the
// merged event log in seed order, exactly as cmd/mcsim -events does.
func sweepJSONL(t *testing.T, cfg sim.MCConfig, seeds []int64, parallelism int) ([]byte, *obs.Metrics) {
	t.Helper()
	mems := make([]*obs.Memory, len(seeds))
	for i := range mems {
		mems[i] = obs.NewMemory()
	}
	metrics := obs.NewMetrics()
	tel := func(i int, _ int64) (obs.Sink, *obs.Metrics) {
		return mems[i], metrics.Fork()
	}
	points := sim.SweepSeeds(context.Background(), cfg, seeds, parallelism, tel)
	for _, p := range points {
		if p.Err != nil {
			t.Fatalf("seed %d: %v", p.Seed, p.Err)
		}
	}
	var buf bytes.Buffer
	for i, mem := range mems {
		if err := obs.WriteJSONL(&buf, seeds[i], mem.Events()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), metrics
}

// TestEventStreamDeterminism is the PR's determinism contract: the same
// seeds produce a byte-identical merged JSONL event log across repeated
// runs and across worker counts.
func TestEventStreamDeterminism(t *testing.T) {
	cfg := sim.MCConfig{
		Policy:        core.MustMajorCAN(5),
		Nodes:         5,
		Frames:        40,
		BerStar:       0.02,
		ResetCounters: true,
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}

	serial, _ := sweepJSONL(t, cfg, seeds, 1)
	if len(serial) == 0 {
		t.Fatal("no events recorded at ber* = 0.02")
	}
	again, _ := sweepJSONL(t, cfg, seeds, 1)
	if !bytes.Equal(serial, again) {
		t.Error("same seeds, same worker count: JSONL differs between runs")
	}
	for _, workers := range []int{2, 4, 8} {
		par, _ := sweepJSONL(t, cfg, seeds, workers)
		if !bytes.Equal(serial, par) {
			t.Errorf("JSONL with %d workers differs from serial run", workers)
		}
	}
}

// TestEventStreamPolicyContrast pins the acceptance criterion: only the
// MajorCAN policy produces eof-vote-corrected events; standard CAN never
// does.
func TestEventStreamPolicyContrast(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	base := sim.MCConfig{
		Nodes:         5,
		Frames:        50,
		BerStar:       0.02,
		EOFOnly:       true,
		ResetCounters: true,
	}

	major := base
	major.Policy = core.MustMajorCAN(5)
	_, mm := sweepJSONL(t, major, seeds, 4)
	if got := mm.EOFVoteCorrected(); got == 0 {
		t.Error("MajorCAN_5 at ber* = 0.02 produced no eof-vote-corrected events")
	}

	std := base
	std.Policy = core.NewStandard()
	_, sm := sweepJSONL(t, std, seeds, 4)
	if got := sm.EOFVoteCorrected(); got != 0 {
		t.Errorf("standard CAN reported %d eof-vote-corrected events, want 0", got)
	}
}

// TestIMOEventsMatchResult checks that the emitted imo events agree with
// the Monte Carlo loop's own classification.
func TestIMOEventsMatchResult(t *testing.T) {
	mem := obs.NewMemory()
	// Standard CAN at a high EOF-only error rate produces IMOs quickly.
	cfg := sim.MCConfig{
		Policy:        core.NewStandard(),
		Nodes:         5,
		Frames:        400,
		BerStar:       0.05,
		EOFOnly:       true,
		Seed:          3,
		ResetCounters: true,
		Events:        mem,
	}
	res, err := sim.MonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IMOs == 0 {
		t.Skip("seed produced no IMOs; adjust parameters")
	}
	if got := mem.Count(obs.KindIMO); got != res.IMOs {
		t.Errorf("imo events = %d, Result.IMOs = %d", got, res.IMOs)
	}
}
