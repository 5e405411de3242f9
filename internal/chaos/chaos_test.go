package chaos

import (
	"context"
	"errors"
	"testing"

	"repro/internal/abcheck"
	"repro/internal/node"
)

// fig3aScript is the paper's Fig. 3a pattern as a chaos script: the
// receivers in X (stations 1, 2) miss the last-but-one EOF bit and the
// transmitter misses the last one, producing an inconsistent message
// omission on standard CAN.
func fig3aScript() Script {
	return Script{
		Version:  ScriptVersion,
		Protocol: "CAN",
		Nodes:    5,
		Frames:   1,
		Faults: []Fault{
			{Kind: ViewFlip, Station: 1, EOFRel: 6, Attempt: 1},
			{Kind: ViewFlip, Station: 2, EOFRel: 6, Attempt: 1},
			{Kind: ViewFlip, Station: 0, EOFRel: 7, Attempt: 1},
		},
	}
}

func TestRunFig3aProducesIMO(t *testing.T) {
	r, err := Run(context.Background(), fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.InconsistentOmissions != 1 {
		t.Errorf("IMOs = %d, want 1", r.Report.InconsistentOmissions)
	}
	if r.Report.Satisfies(abcheck.Agreement) {
		t.Error("Fig. 3a script must violate Agreement")
	}
	if !r.Quiet {
		t.Error("bus must quiesce")
	}
	vs := Violations(r, DefaultProbes())
	if len(vs) == 0 {
		t.Error("default probes must report the violation")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, fig3aScript(), Telemetry{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay err = %v, want context.Canceled", err)
	}
	// A live context must not perturb the simulated outcome.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	a, err := Run(live, fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Slots != b.Slots {
		t.Errorf("context-threaded run digests %s/%d, plain run %s/%d", a.DigestHex, a.Slots, b.DigestHex, b.Slots)
	}
}

func TestRunDeterministicDigest(t *testing.T) {
	a, err := Run(context.Background(), fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.Slots != b.Slots {
		t.Errorf("same script digests %s/%d vs %s/%d", a.DigestHex, a.Slots, b.DigestHex, b.Slots)
	}
	clean, err := Run(context.Background(), fig3aScript().WithFaults(nil), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Digest == a.Digest {
		t.Error("faulted and clean runs must digest differently")
	}
	if len(Violations(clean, DefaultProbes())) != 0 {
		t.Error("fault-free run must be clean")
	}
}

func TestRunMajorCANDefeatsFig3a(t *testing.T) {
	s := fig3aScript()
	s.Protocol = "MajorCAN_5"
	r, err := Run(context.Background(), s, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := Violations(r, DefaultProbes()); len(vs) != 0 {
		t.Errorf("MajorCAN must tolerate the Fig. 3a pattern, got %v", vs)
	}
}

func TestStuckDominantJamRecovers(t *testing.T) {
	s := Script{
		Version:  ScriptVersion,
		Protocol: "CAN",
		Nodes:    5,
		Frames:   2,
		Faults: []Fault{
			{Kind: StuckDominant, Station: 3, Slot: 20, Until: 140},
		},
	}
	r, err := Run(context.Background(), s, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Quiet {
		t.Fatal("bus must recover after the jam window ends")
	}
	// The jammer is faulty by injection; the remaining stations must still
	// agree on both frames once the babbling stops.
	if !r.Trace.Faulty[3] {
		t.Error("jammed station must be marked faulty")
	}
	if vs := Violations(r, []Probe{AB(abcheck.Agreement, abcheck.Validity)}); len(vs) != 0 {
		t.Errorf("post-jam retransmission must restore agreement, got %v", vs)
	}
}

func TestMuteWindowSuppressesStation(t *testing.T) {
	s := Script{
		Version:  ScriptVersion,
		Protocol: "CAN",
		Nodes:    3,
		Frames:   1,
		Faults: []Fault{
			{Kind: Mute, Station: 1, Slot: 0, Until: 500},
		},
	}
	r, err := Run(context.Background(), s, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Trace.Faulty[1] {
		t.Error("muted station must be marked faulty")
	}
	if !r.Quiet {
		t.Error("two live stations must still complete the frame")
	}
}

func TestBusOffScheduleWithAutoRecoverRejoins(t *testing.T) {
	s := Script{
		Version:     ScriptVersion,
		Protocol:    "CAN",
		Nodes:       4,
		Frames:      2,
		AutoRecover: true,
		Faults: []Fault{
			{Kind: BusOffKind, Station: 2, Slot: 30},
		},
	}
	r, err := Run(context.Background(), s, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	st := r.NodeStates[2]
	if !st.EverOff {
		t.Error("station 2 must have gone bus-off")
	}
	if st.Mode != node.ErrorActive {
		t.Errorf("station 2 mode = %v, want recovered to error-active", st.Mode)
	}
	if !r.Trace.Faulty[2] {
		t.Error("a station that left the bus is faulty for the AB properties")
	}
	if vs := Violations(r, DefaultProbes()); len(vs) != 0 {
		t.Errorf("probes over the surviving stations must be clean, got %v", vs)
	}
}

func TestCrashScheduleIsTerminal(t *testing.T) {
	s := Script{
		Version:  ScriptVersion,
		Protocol: "CAN",
		Nodes:    4,
		Frames:   2,
		Faults: []Fault{
			{Kind: Crash, Station: 1, Slot: 10},
		},
	}
	r, err := Run(context.Background(), s, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	st := r.NodeStates[1]
	if !st.Crashed || st.Mode != node.SwitchedOff {
		t.Errorf("station 1 state %+v, want crashed and switched off", st)
	}
	if !r.Trace.Faulty[1] {
		t.Error("crashed station must be faulty")
	}
}

func TestClockGlitchChangesDigestOnly(t *testing.T) {
	base := Script{Version: ScriptVersion, Protocol: "CAN", Nodes: 3, Frames: 1}
	clean, err := Run(context.Background(), base, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	// A one-slot skew in the middle of the frame body: the sampled level
	// differs whenever the bus toggled across the boundary.
	glitched, err := Run(context.Background(), base.WithFaults([]Fault{
		{Kind: ClockGlitch, Station: 1, Slot: 15},
	}), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Digest == glitched.Digest {
		t.Error("clock glitch must perturb the recorded history")
	}
	if !glitched.Quiet {
		t.Error("a single glitch must not wedge the bus")
	}
}

func TestShrinkFindsMinimalPair(t *testing.T) {
	// The Fig. 3a pair buried among four irrelevant faults: shrinking with
	// an Agreement predicate must strip the decoys.
	s := fig3aScript()
	s.Faults = append(s.Faults,
		Fault{Kind: ViewFlip, Station: 3, EOFRel: 2, Attempt: 2},
		Fault{Kind: ViewFlip, Station: 4, EOFRel: 9, Attempt: 1},
		Fault{Kind: ClockGlitch, Station: 1, Slot: 180},
	)
	execs := 0
	shrunk := Shrink(s, func(cand Script) bool {
		r, err := Run(context.Background(), cand, Telemetry{})
		if err != nil {
			return false
		}
		execs++
		return !r.Report.Satisfies(abcheck.Agreement)
	})
	// One receiver-side rel-6 flip plus the transmitter rel-7 flip suffice;
	// the second receiver flip is redundant, so ddmin must reach 2 faults.
	if len(shrunk.Faults) != 2 {
		t.Fatalf("shrunk to %d faults %v, want 2", len(shrunk.Faults), shrunk.Faults)
	}
	hasTx := false
	hasRx := false
	for _, f := range shrunk.Faults {
		if f.Kind != ViewFlip || f.Attempt != 1 {
			t.Errorf("unexpected shrunk fault %v", f)
		}
		if f.Station == 0 && f.EOFRel == 7 {
			hasTx = true
		}
		if f.Station != 0 && f.EOFRel == 6 {
			hasRx = true
		}
	}
	if !hasTx || !hasRx {
		t.Errorf("shrunk faults %v, want the transmitter rel-7 and one receiver rel-6 flip", shrunk.Faults)
	}
	if execs == 0 {
		t.Error("predicate must have been exercised")
	}
	// 1-minimality: removing either remaining fault kills the failure.
	for i := range shrunk.Faults {
		rest := append(append([]Fault(nil), shrunk.Faults[:i]...), shrunk.Faults[i+1:]...)
		r, err := Run(context.Background(), shrunk.WithFaults(rest), Telemetry{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Report.Satisfies(abcheck.Agreement) {
			t.Errorf("removing fault %d still violates Agreement: not 1-minimal", i)
		}
	}
}

func TestShrinkKeepsNonFailingScript(t *testing.T) {
	s := fig3aScript()
	got := Shrink(s, func(Script) bool { return false })
	if len(got.Faults) != len(s.Faults) {
		t.Errorf("non-failing input must be returned unchanged, got %d faults", len(got.Faults))
	}
}

func TestScriptValidate(t *testing.T) {
	bad := []Script{
		{Version: 1, Protocol: "CAN", Nodes: 2, Frames: 1},
		{Version: 1, Protocol: "CAN", Nodes: 3, Frames: 0},
		{Version: 1, Protocol: "nope", Nodes: 3, Frames: 1},
		{Version: 1, Protocol: "CAN", Nodes: 3, Frames: 1,
			Faults: []Fault{{Kind: ViewFlip, Station: 5}}},
		{Version: 1, Protocol: "CAN", Nodes: 3, Frames: 1,
			Faults: []Fault{{Kind: ViewFlip, Station: 0}}},
		{Version: 1, Protocol: "CAN", Nodes: 3, Frames: 1,
			Faults: []Fault{{Kind: Mute, Station: 0, Slot: 10, Until: 10}}},
		{Version: 1, Protocol: "CAN", Nodes: 3, Frames: 1,
			Faults: []Fault{{Kind: "gremlin", Station: 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("script %d must fail validation", i)
		}
	}
	if err := fig3aScript().Validate(); err != nil {
		t.Errorf("fig3a script must validate: %v", err)
	}
}

func TestParseProtocolRoundTrips(t *testing.T) {
	for _, name := range []string{"CAN", "can", "MinorCAN", "majorcan", "MajorCAN_5", "majorcan_7"} {
		p, err := ParseProtocol(name)
		if err != nil {
			t.Errorf("ParseProtocol(%q): %v", name, err)
			continue
		}
		// The canonical name must parse back to the same policy.
		q, err := ParseProtocol(p.Name())
		if err != nil || q.Name() != p.Name() {
			t.Errorf("round trip %q -> %q failed: %v", name, p.Name(), err)
		}
	}
	if _, err := ParseProtocol("majorcan_x"); err == nil {
		t.Error("bad m must be rejected")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	r, err := Run(context.Background(), fig3aScript(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	a := Artifact{
		Campaign: "t",
		Script:   fig3aScript(),
		Verdict:  VerdictOf(r, DefaultProbes()),
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Verdict.Digest != a.Verdict.Digest || len(back.Script.Faults) != 3 {
		t.Errorf("artifact did not round trip: %+v", back)
	}
	if _, err := DecodeArtifact([]byte("{")); err == nil {
		t.Error("truncated artifact must be rejected")
	}
	if _, err := DecodeArtifact([]byte(`{"script":{"version":9}}`)); err == nil {
		t.Error("wrong version must be rejected")
	}
}
