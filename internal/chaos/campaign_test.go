package chaos

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/abcheck"
	"repro/internal/obs"
)

// TestCampaignRediscoversFig3a is the headline robustness result: a random
// fault-injection campaign over standard CAN, restricted to per-station
// view flips, rediscovers the paper's Fig. 3a inconsistency from scratch
// and shrinks it to the minimal two-disturbance pattern — one receiver
// missing the last-but-one EOF bit and the transmitter missing the last.
func TestCampaignRediscoversFig3a(t *testing.T) {
	c := Campaign{
		Name:        "fig3a-rediscovery",
		Base:        Script{Version: ScriptVersion, Protocol: "CAN", Nodes: 5, Frames: 1},
		Trials:      200,
		MaxFaults:   4,
		FaultKinds:  []FaultKind{ViewFlip},
		Seed:        12,
		Probes:      []Probe{AB(abcheck.Agreement)},
		StopAtFirst: true,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatalf("campaign found no Agreement violation in %d trials", res.Trials)
	}
	f := res.Findings[0]
	if len(f.Shrunk.Faults) > 3 {
		t.Errorf("shrunk to %d faults, want <= 3", len(f.Shrunk.Faults))
	}
	agreement := false
	for _, v := range f.Violations {
		if strings.HasPrefix(v, abcheck.Agreement.String()) {
			agreement = true
		}
	}
	if !agreement {
		t.Errorf("finding violations %v lack Agreement", f.Violations)
	}
	// The minimal pattern is the paper's: a transmitter-side flip of the
	// last EOF bit plus a receiver-side flip of the last-but-one.
	hasTx, hasRx := false, false
	for _, fault := range f.Shrunk.Faults {
		if fault.Kind == ViewFlip && fault.Station == 0 && fault.EOFRel == 7 {
			hasTx = true
		}
		if fault.Kind == ViewFlip && fault.Station != 0 && fault.EOFRel == 6 {
			hasRx = true
		}
	}
	if !hasTx || !hasRx {
		t.Errorf("shrunk faults %v are not the Fig. 3a pattern", f.Shrunk.Faults)
	}

	// The finding must replay bit-for-bit from its artifact.
	rr, err := Replay(context.Background(), f.Artifact(c.Name), Telemetry{}, c.Probes...)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Matches() {
		t.Errorf("replay mismatch: digest=%v verdict=%v", rr.DigestMatch, rr.VerdictMatch)
	}
}

func TestCampaignCleanOnMajorCAN(t *testing.T) {
	// The same search space on MajorCAN must come up empty: the protocol
	// tolerates any single-frame pattern of up to 2 view flips, and the
	// higher-multiplicity patterns that defeat m=5 need 5 coordinated
	// disturbances, unreachable with MaxFaults=2.
	c := Campaign{
		Base:       Script{Version: ScriptVersion, Protocol: "MajorCAN_5", Nodes: 5, Frames: 1},
		Trials:     60,
		MaxFaults:  2,
		FaultKinds: []FaultKind{ViewFlip},
		Seed:       12,
		Probes:     []Probe{AB(abcheck.Agreement, abcheck.AtMostOnce)},
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Errorf("MajorCAN campaign found %d violations: %+v", len(res.Findings), res.Findings[0].Violations)
	}
	if res.Executions != res.Trials {
		t.Errorf("executions = %d, want %d (no shrinking on a clean campaign)", res.Executions, res.Trials)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	c := Campaign{
		Base:       Script{Version: ScriptVersion, Protocol: "CAN", Nodes: 4, Frames: 2},
		Trials:     40,
		Seed:       7,
		FaultKinds: []FaultKind{ViewFlip, ClockGlitch, Mute},
	}
	a, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Findings) != len(b.Findings) || a.Executions != b.Executions {
		t.Fatalf("campaign not deterministic: %d/%d findings, %d/%d executions",
			len(a.Findings), len(b.Findings), a.Executions, b.Executions)
	}
	for i := range a.Findings {
		if a.Findings[i].Verdict.Digest != b.Findings[i].Verdict.Digest {
			t.Errorf("finding %d digests differ", i)
		}
	}
}

// TestCampaignCancelInsideTrial cancels ctx from inside trial 0 — on the
// first protocol event of its run, of its first shrink candidate and of
// its final run — and requires the campaign to stop at the next frame
// boundary: the interrupted trial adds no executions, no finding and no
// progress, and the campaign returns ctx's error instead of running the
// trial and its shrink to completion.
func TestCampaignCancelInsideTrial(t *testing.T) {
	const frames = 3
	c := Campaign{
		Base:       Script{Version: ScriptVersion, Protocol: "CAN", Nodes: 5, Frames: frames},
		Trials:     3,
		MaxFaults:  4,
		FaultKinds: []FaultKind{ViewFlip},
		Seed:       3,
	}
	// Count trial 0's events: its run, its shrink candidates, and the
	// final run of the shrunk script.
	events := 0
	trial0 := c
	trial0.Trials = 1
	trial0.Events = obs.SinkFunc(func(obs.Event) { events++ })
	full, err := trial0.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Findings) != 1 || full.Executions < 3 {
		t.Fatalf("uncancelled trial 0: %d executions, findings %+v; want it to fail and shrink",
			full.Executions, full.Findings)
	}
	trialEvents := events
	count := func(s Script) int {
		mem := obs.NewMemory()
		if _, err := Run(context.Background(), s, Telemetry{Events: mem}); err != nil {
			t.Fatal(err)
		}
		return len(mem.Events())
	}
	runEvents := count(full.Findings[0].Original)
	finalEvents := count(full.Findings[0].Shrunk)

	for _, tc := range []struct {
		cancelAt   int    // event that cancels ctx
		framesSent uint64 // frames simulated up to the frame boundary that notices
	}{
		{1, 1},                      // the trial's run
		{runEvents + 1, frames + 1}, // its first shrink candidate
		{trialEvents - finalEvents + 1, frames*uint64(full.Executions-1) + 1}, // the final run
	} {
		ctx, cancel := context.WithCancel(context.Background())
		events = 0
		progressed := false
		c.Events = obs.SinkFunc(func(obs.Event) {
			if events++; events == tc.cancelAt {
				cancel()
			}
		})
		c.Metrics = obs.NewMetrics()
		c.OnTrial = func(int) { progressed = true }
		c.OnProgress = func(CampaignProgress) { progressed = true }
		res, err := c.Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at event %d: err = %v, want context.Canceled", tc.cancelAt, err)
		}
		if res == nil || res.Executions != 0 || len(res.Findings) != 0 || progressed {
			t.Fatalf("cancel at event %d: result %+v, progress reported %v; want nothing from trial 0",
				tc.cancelAt, res, progressed)
		}
		if got := c.Metrics.Snapshot(0).FramesSent; got != tc.framesSent {
			t.Errorf("cancel at event %d: %d frames simulated, want %d", tc.cancelAt, got, tc.framesSent)
		}
	}
}

// TestReplayCheckedInArtifact is the regression gate for the shrunk
// counterexample stored in testdata: the artifact must re-execute
// bit-for-bit and reach the recorded Agreement verdict.
func TestReplayCheckedInArtifact(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig3a_shrunk.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Script.Faults) > 3 {
		t.Errorf("checked-in artifact has %d faults, want a shrunk script (<= 3)", len(a.Script.Faults))
	}
	rr, err := Replay(context.Background(), a, Telemetry{}, AB(abcheck.Agreement))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.DigestMatch {
		t.Errorf("digest %s != recorded %s (slots %d vs %d)",
			rr.Verdict.Digest, a.Verdict.Digest, rr.Verdict.Slots, a.Verdict.Slots)
	}
	if !rr.VerdictMatch {
		t.Errorf("verdict %+v != recorded %+v", rr.Verdict, a.Verdict)
	}
	agreement := false
	for _, v := range rr.Verdict.Violations {
		if strings.HasPrefix(v, abcheck.Agreement.String()) {
			agreement = true
		}
	}
	if !agreement {
		t.Errorf("replayed violations %v lack Agreement", rr.Verdict.Violations)
	}
}

func TestReplayDetectsTamperedVerdict(t *testing.T) {
	r, err := Run(context.Background(), fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	a := Artifact{Script: fig3aScript(), Verdict: VerdictOf(r, DefaultProbes())}
	a.Verdict.Digest = "0000000000000000"
	rr, err := Replay(context.Background(), a, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.DigestMatch || rr.Matches() {
		t.Error("tampered digest must not match")
	}
}
