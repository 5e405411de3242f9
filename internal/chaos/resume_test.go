package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

func resumeSpec() CampaignSpec {
	// Seed 18 rediscovers an Agreement violation at trial 26, so resume
	// points both before and after a finding are exercised.
	return CampaignSpec{
		Protocol: "can",
		Frames:   1,
		Trials:   30,
		Seed:     18,
		Kinds:    []FaultKind{ViewFlip},
		Probes:   []string{"agreement"},
	}
}

// TestCampaignResumeByteIdentical: a campaign interrupted at any trial
// boundary and resumed from the recorded progress must produce an
// outcome byte-identical to an uninterrupted run — per-trial RNGs make
// trial t independent of how the run reached it.
func TestCampaignResumeByteIdentical(t *testing.T) {
	spec := resumeSpec()
	ref, err := RunCampaignSpec(context.Background(), spec, Telemetry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference campaign found nothing; resume test needs findings to carry across the boundary")
	}

	// Record progress at every trial boundary.
	var snaps []CampaignProgress
	_, err = RunCampaignSpecResumable(context.Background(), spec, Telemetry{}, nil, nil,
		func(p CampaignProgress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != spec.Trials {
		t.Fatalf("got %d progress snapshots, want %d", len(snaps), spec.Trials)
	}

	// Resume from a handful of interruption points, including ones before
	// and after findings were made.
	for _, cut := range []int{1, 10, 27, 29} {
		snap := snaps[cut-1]
		res, err := RunCampaignSpecResumable(context.Background(), spec, Telemetry{}, nil, &snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(refJSON) {
			t.Fatalf("resume from trial %d diverged:\n got %s\nwant %s", cut, got, refJSON)
		}
	}
}

// TestCampaignResumeStopAtFirstDoesNotSearchFurther: a stop-at-first
// campaign that had already found its counterexample must return it on
// resume without drawing more trials.
func TestCampaignResumeStopAtFirstDoesNotSearchFurther(t *testing.T) {
	spec := resumeSpec()
	spec.StopAtFirst = true
	ref, err := RunCampaignSpec(context.Background(), spec, Telemetry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference stop-at-first campaign found nothing")
	}

	var last CampaignProgress
	_, err = RunCampaignSpecResumable(context.Background(), spec, Telemetry{}, nil, nil,
		func(p CampaignProgress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	trials := 0
	res, err := RunCampaignSpecResumable(context.Background(), spec, Telemetry{},
		func(int) { trials++ }, &last, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trials != 0 {
		t.Fatalf("resumed stop-at-first campaign ran %d more trials, want 0", trials)
	}
	if len(res.Findings) != len(ref.Findings) {
		t.Fatalf("findings lost across resume: %d vs %d", len(res.Findings), len(ref.Findings))
	}
}

// TestCampaignSpecCancelKeepsCompletedTrials cancels a campaign at a
// trial boundary: the outcome of the trials completed before it comes
// back with ctx's error — Trials counts them, and the findings are the
// uninterrupted run's findings from those trials.
func TestCampaignSpecCancelKeepsCompletedTrials(t *testing.T) {
	spec := resumeSpec()
	ref, err := RunCampaignSpec(context.Background(), spec, Telemetry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 27} {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := RunCampaignSpec(ctx, spec, Telemetry{}, func(done int) {
			if done == cut {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut %d: err = %v, want context.Canceled", cut, err)
		}
		if out == nil {
			t.Fatalf("cut %d: no outcome for the completed trials", cut)
		}
		if out.Trials != cut || out.Trials >= spec.Trials {
			t.Fatalf("cut %d: outcome covers %d trials, want %d of %d", cut, out.Trials, cut, spec.Trials)
		}
		want := []Artifact{}
		for _, a := range ref.Findings {
			if a.Trial < cut {
				want = append(want, a)
			}
		}
		got, _ := json.Marshal(out.Findings)
		wantJSON, _ := json.Marshal(want)
		if string(got) != string(wantJSON) {
			t.Fatalf("cut %d: findings %s, want %s", cut, got, wantJSON)
		}
	}
}
