package verify

import (
	"context"
	"testing"

	"repro/internal/core"
)

// The paper, Section 3: "it can be proven, by checking all the possible
// cases, that MinorCAN achieves consistency in the event of a permanent
// failure of any of the nodes after the bit error detection." Mechanise
// that proof: every single-flip pattern combined with every
// crash-at-first-signal placement.
func TestMinorCANSingleErrorWithCrashesExhaustive(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:     core.NewMinorCAN(),
		Stations:   4,
		MaxFlips:   1,
		CrashSweep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Errorf("MinorCAN must survive any single error plus any single node failure:\n%s", rep.Summary())
	}
	t.Logf("MinorCAN, k=1 with crash sweep: %d base patterns", rep.Checked)
}

// Standard CAN with crashes: the exhaustive space must contain the classic
// Fig. 1c omission (single flip at the last-but-one bit + transmitter
// crash).
func TestStandardCANCrashOmissionExists(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:     core.NewStandard(),
		Stations:   4,
		MaxFlips:   1,
		CrashSweep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Outcome == Omission && v.Crashed == 0 &&
			len(v.Pattern) == 1 && v.Pattern[0].Pos == 6 && v.Pattern[0].Station != 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("the Fig. 1c pattern must appear in the crash-sweep space:\n%s", rep.Summary())
	}
}

// MajorCAN_5 under single errors combined with single fail-silent crashes:
// the paper claims Atomic Broadcast "when the nodes present fail-silent
// behaviour". This exhaustive pass checks the claim for one error + one
// crash and documents what it finds (see DESIGN.md if violations appear).
func TestMajorCAN5SingleErrorWithCrashesExhaustive(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:     core.MustMajorCAN(5),
		Stations:   4,
		MaxFlips:   1,
		CrashSweep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Logf("violation: %s", v)
	}
	if !rep.Consistent() {
		t.Errorf("MajorCAN_5 single error + single crash space has %d violations:\n%s",
			len(rep.Violations), rep.Summary())
	}
}
