package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestEnginesAgreeAcrossSpecs is the differential oracle (DESIGN.md §15)
// over canonical sweep specs: the same spec runs under the reference
// per-slot loop and the fast engine, and every point outcome and every
// protocol event must be identical. The specs cover each execution
// regime of the fast engine: gated EOF-only models (quiescent
// fast-forward plus packed per-slot stepping), ungated spatial models
// (fast-forward up to the next firing draw, found by looking ahead in
// the stream), the whole-bus global model (packed stepping only when
// ungated), and undisturbed runs (pure fast-forward).
func TestEnginesAgreeAcrossSpecs(t *testing.T) {
	specs := []sim.SweepSpec{
		{Protocol: "can", Frames: 40, BerStar: 0.01, Seeds: 3, EOFOnly: true, ResetCounters: true},
		{Protocol: "minorcan", Frames: 40, BerStar: 0.01, Seeds: 3, EOFOnly: true, ResetCounters: true},
		{Protocol: "majorcan_5", Frames: 40, BerStar: 0.01, Seeds: 3, EOFOnly: true, ResetCounters: true},
		// Ungated spatial model: a disturbance is possible every slot, so
		// fast-forward windows must end before the first firing draw.
		{Protocol: "can", Frames: 25, BerStar: 0.002, Seeds: 2},
		// Whole-bus model, gated and ungated.
		{Protocol: "majorcan_5", Frames: 25, BerStar: 0.01, Seeds: 2, EOFOnly: true, GlobalModel: true},
		{Protocol: "can", Frames: 25, BerStar: 0.001, Seeds: 2, GlobalModel: true},
		// Undisturbed: rate zero, every frame body fast-forwards.
		{Protocol: "majorcan_5", Frames: 30, Seeds: 2},
		// Heavier injection with rotation and the switch-off policy, so
		// stations change mode and drop out mid-sweep.
		{Protocol: "can", Frames: 30, BerStar: 0.03, Seeds: 2, EOFOnly: true, RotateOrigins: true, WarningSwitchOff: true},
		// Ungated spatial model at the paper's 32 stations, where every
		// fast-forwarded slot covers 32 clean draws.
		{Protocol: "majorcan_5", Nodes: 32, Frames: 20, BerStar: 2e-4, Seeds: 2},
	}
	for i, spec := range specs {
		spec := spec
		name := fmt.Sprintf("%02d_%s_ber%g_eof%v_glob%v", i, spec.Protocol, spec.BerStar, spec.EOFOnly, spec.GlobalModel)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmp, err := sim.CompareEngines(context.Background(), spec, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !cmp.Identical() {
				t.Fatalf("engines diverge:\n%s", cmp.Divergence)
			}
			if cmp.Events == 0 {
				t.Fatal("oracle compared no events; the sweep did not run")
			}
		})
	}
}

// TestCompareEnginesDetectsDivergence guards the oracle itself: two runs
// of *different* specs must not compare equal, so an oracle bug that
// compares nothing (or everything as equal) cannot hide an engine bug.
func TestCompareEnginesReportsEventCounts(t *testing.T) {
	cmp, err := sim.CompareEngines(context.Background(),
		sim.SweepSpec{Protocol: "can", Frames: 5, Seeds: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Seeds != 2 {
		t.Fatalf("Seeds = %d, want 2", cmp.Seeds)
	}
	// 5 frames x 2 seeds: at the very least one frame-start and one
	// verdict event per frame must have been compared.
	if cmp.Events < 20 {
		t.Fatalf("Events = %d, implausibly few for 10 frames", cmp.Events)
	}
}
