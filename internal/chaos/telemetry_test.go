package chaos

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func loadFig3a(t *testing.T) Artifact {
	t.Helper()
	data, err := os.ReadFile("testdata/fig3a_shrunk.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFig3aTelemetry is the PR's acceptance scenario: replaying the
// checked-in two-disturbance counterexample with events and metrics
// attached renders the inconsistency as a readable event sequence —
// the disturbed receiver's error flag, the reactive overload flags, one
// imo event — while reproducing the recorded digest bit for bit.
func TestFig3aTelemetry(t *testing.T) {
	a := loadFig3a(t)
	mem := obs.NewMemory()
	metrics := obs.NewMetrics()
	rec := trace.NewRecorder()
	rr, err := Replay(context.Background(), a, Telemetry{Events: mem, Metrics: metrics, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Telemetry must not perturb the simulation: the recorded digest and
	// verdict still reproduce exactly.
	if !rr.Matches() {
		t.Fatalf("replay with telemetry diverged: digest=%v verdict=%v", rr.DigestMatch, rr.VerdictMatch)
	}
	if rr.Verdict.Digest != a.Verdict.Digest {
		t.Fatalf("digest = %s, want %s", rr.Verdict.Digest, a.Verdict.Digest)
	}

	if got := mem.Count(obs.KindIMO); got != 1 {
		t.Errorf("imo events = %d, want 1", got)
	}
	flags := 0
	for _, e := range mem.Events() {
		if e.Kind.ErrorFlag() {
			flags++
		}
	}
	if flags < 2 {
		t.Errorf("error-flag events = %d, want >= 2 (primary flag plus reactive flags)", flags)
	}
	// The two-disturbance story: the corrupted receiver rejects with a
	// form-error flag while the transmitter accepts without retransmitting.
	var corruptedFlag, txAccepted bool
	for _, e := range mem.Events() {
		if e.Kind.ErrorFlag() && obs.CauseName(e.Cause) == "form" {
			corruptedFlag = true
		}
		if e.Kind == obs.KindFrameAccepted && e.Transmitter() {
			txAccepted = true
		}
	}
	if !corruptedFlag {
		t.Error("no form-error flag from the corrupted receiver")
	}
	if !txAccepted {
		t.Error("transmitter did not accept (the scenario requires an accepting, non-retransmitting transmitter)")
	}
	if n := mem.Count(obs.KindRetransmit); n != 0 {
		t.Errorf("retransmit events = %d, want 0 (the omission must go unrepaired)", n)
	}

	// Every event slot inside the simulated range correlates to a recorded
	// bus slot.
	cs := rec.Correlate(mem.Events())
	for _, c := range cs {
		if c.Event.Slot < uint64(rec.Len()) && !c.Found {
			t.Errorf("event at slot %d has no bus record", c.Event.Slot)
		}
	}
	text := trace.FormatCorrelated(cs)
	if !strings.Contains(text, "imo") || !strings.Contains(text, "error-flag") {
		t.Errorf("correlated rendering missing expected events:\n%s", text)
	}

	// Metrics side of the acceptance criterion: the inconsistency is
	// visible, and standard CAN reports no vote corrections.
	snap := metrics.Snapshot(time.Second)
	if snap.IMOs != 1 {
		t.Errorf("metrics imos = %d, want 1", snap.IMOs)
	}
	if snap.EOFVoteCorrected != 0 {
		t.Errorf("metrics eof_vote_corrected = %d, want 0 under standard CAN", snap.EOFVoteCorrected)
	}
	if snap.Retransmits != 0 {
		t.Errorf("metrics retransmits = %d, want 0", snap.Retransmits)
	}
	b, err := json.Marshal(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"eof_vote_corrected":0`) {
		t.Errorf("metrics JSON missing eof_vote_corrected: %s", b)
	}
}

// TestCampaignMetrics checks that a campaign aggregates every simulator
// execution — trials, shrink candidates, verification runs — into one
// registry and reports trial progress.
func TestCampaignMetrics(t *testing.T) {
	metrics := obs.NewMetrics()
	var trialsSeen []int
	c := Campaign{
		Name: "telemetry",
		Base: Script{
			Version:  ScriptVersion,
			Protocol: "can",
			Nodes:    4,
			Frames:   1,
		},
		Trials:    12,
		MaxFaults: 2,
		Seed:      11,
		Metrics:   metrics,
		OnTrial:   func(done int) { trialsSeen = append(trialsSeen, done) },
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(trialsSeen) != res.Trials {
		t.Errorf("OnTrial called %d times, want %d", len(trialsSeen), res.Trials)
	}
	for i, n := range trialsSeen {
		if n != i+1 {
			t.Fatalf("OnTrial sequence %v not monotonic", trialsSeen)
		}
	}
	snap := metrics.Snapshot(0)
	if snap.FramesSent < uint64(res.Executions) {
		t.Errorf("frames_sent = %d, want >= %d (one frame per execution)", snap.FramesSent, res.Executions)
	}
	if snap.BitsSimulated == 0 {
		t.Error("bits_simulated = 0 after a campaign")
	}
}
