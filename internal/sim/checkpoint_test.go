package sim

import (
	"context"
	"encoding/json"
	"testing"
)

func ckptSpec() SweepSpec {
	return SweepSpec{
		Protocol:      "majorcan_5",
		Frames:        50,
		BerStar:       0.02,
		Seed:          7,
		Seeds:         12,
		EOFOnly:       true,
		ResetCounters: true,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepResumeByteIdentical is the determinism contract behind crash
// recovery: a sweep interrupted at any checkpoint boundary and resumed
// from the saved prefix must produce the exact bytes an uninterrupted
// run produces.
func TestSweepResumeByteIdentical(t *testing.T) {
	spec := ckptSpec()
	ref, err := RunSweepSpec(context.Background(), spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := mustJSON(t, ref)

	// First run: capture every checkpoint, batch size 4.
	var checkpoints [][]PointOutcome
	_, err = RunSweepSpecResumable(context.Background(), spec, 2, nil, &SweepResume{
		Every: 4,
		Save: func(done []PointOutcome) {
			checkpoints = append(checkpoints, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) != 2 { // 12 points, batch 4: saves after 4 and 8
		t.Fatalf("got %d checkpoints, want 2", len(checkpoints))
	}

	// Resume from each checkpoint; the merged outcome must be identical.
	for i, prior := range checkpoints {
		res, err := RunSweepSpecResumable(context.Background(), spec, 3, nil, &SweepResume{
			Prior: prior,
			Every: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, res); string(got) != string(refJSON) {
			t.Fatalf("resume from checkpoint %d (%d points) diverged:\n got %s\nwant %s",
				i, len(prior), got, refJSON)
		}
	}
}

// TestSweepResumeRejectsMismatchedPrior: a checkpoint recorded for a
// different seed list (or holding cancelled placeholders) must be
// discarded, not merged.
func TestSweepResumeRejectsMismatchedPrior(t *testing.T) {
	spec := ckptSpec()
	ref, err := RunSweepSpec(context.Background(), spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	bogus := []PointOutcome{
		{Seed: 999, FramesSent: 1}, // wrong seed: not this spec's stream
	}
	res, err := RunSweepSpecResumable(context.Background(), spec, 2, nil, &SweepResume{Prior: bogus})
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, res)) != string(mustJSON(t, ref)) {
		t.Fatal("mismatched prior perturbed the outcome")
	}

	cancelled := []PointOutcome{{Seed: spec.Seed, Cancelled: true}}
	res2, err := RunSweepSpecResumable(context.Background(), spec, 2, nil, &SweepResume{Prior: cancelled})
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, res2)) != string(mustJSON(t, ref)) {
		t.Fatal("cancelled prior entries were treated as completed work")
	}
}

// TestSweepCancelledMidBatchNotSaved: cancellation inside a batch stops
// checkpointing — a checkpoint holds only completed work, so a crash
// during drain can never persist a partial batch.
func TestSweepCancelledMidBatchNotSaved(t *testing.T) {
	spec := ckptSpec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first batch starts
	saves := 0
	res, err := RunSweepSpecResumable(ctx, spec, 2, nil, &SweepResume{
		Every: 4,
		Save:  func([]PointOutcome) { saves++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves != 0 {
		t.Fatalf("cancelled run saved %d checkpoints, want 0", saves)
	}
	if res.Summary.Cancelled != spec.Seeds {
		t.Fatalf("cancelled = %d, want %d", res.Summary.Cancelled, spec.Seeds)
	}
}
