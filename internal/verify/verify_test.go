package verify

import (
	"context"
	"testing"

	"repro/internal/core"
)

// Exhaustive single-error verification of MinorCAN: the paper's Section 3
// claim, checked over the COMPLETE one-flip fault space of the decision
// region ("it can be proven, by checking all the possible cases, that
// MinorCAN achieves consistency"). This is that check, mechanised.
func TestMinorCANSingleErrorExhaustive(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:   core.NewMinorCAN(),
		Stations: 4,
		MaxFlips: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Errorf("MinorCAN must survive every single error:\n%s", rep.Summary())
	}
	if rep.Checked < 30 {
		t.Errorf("only %d patterns checked; fault space seems truncated", rep.Checked)
	}
}

// Standard CAN also survives every single error (the last-bit rule's whole
// purpose) — double receptions and omissions need at least two flips or a
// crash.
func TestStandardCANSingleErrorExhaustive(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:   core.NewStandard(),
		Stations: 4,
		MaxFlips: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A single flip at the last-but-one EOF bit of one receiver produces
	// the Fig. 1b double reception: standard CAN is NOT single-error
	// consistent.
	if rep.Consistent() {
		t.Error("standard CAN must show single-error double receptions (Fig. 1b)")
	}
	for _, v := range rep.Violations {
		if v.Outcome == Omission {
			t.Errorf("standard CAN must not show single-error omissions, got %s", v)
		}
	}
}

// The exhaustive two-flip fault space of standard CAN contains the paper's
// Fig. 3a omission pattern.
func TestStandardCANTwoErrorOmissionsExist(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:   core.NewStandard(),
		Stations: 4,
		MaxFlips: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundOmission := false
	foundFig3a := false
	for _, v := range rep.Violations {
		if v.Outcome != Omission {
			continue
		}
		foundOmission = true
		if len(v.Pattern) != 2 {
			continue
		}
		// Fig. 3a: a receiver at the last-but-one bit (6) and the
		// transmitter at the last bit (7).
		a, b := v.Pattern[0], v.Pattern[1]
		if (a.Station != 0 && a.Pos == 6 && b.Station == 0 && b.Pos == 7) ||
			(b.Station != 0 && b.Pos == 6 && a.Station == 0 && a.Pos == 7) {
			foundFig3a = true
		}
	}
	if !foundOmission {
		t.Error("two flips must suffice for an omission in standard CAN (the paper's claim)")
	}
	if !foundFig3a {
		t.Error("the exhaustive search must rediscover the paper's Fig. 3a pattern")
	}
	t.Logf("standard CAN, k<=2: %d patterns, %d violations", rep.Checked, len(rep.Violations))
}

// MinorCAN's two-flip fault space contains omissions (Fig. 3b) — the
// paper's reason for abandoning it.
func TestMinorCANTwoErrorOmissionsExist(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:   core.NewMinorCAN(),
		Stations: 4,
		MaxFlips: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	omissions := 0
	for _, v := range rep.Violations {
		if v.Outcome == Omission {
			omissions++
		}
	}
	if omissions == 0 {
		t.Error("MinorCAN must show two-error omissions (Fig. 3b)")
	}
	t.Logf("MinorCAN, k<=2: %d patterns, %d violations (%d omissions)", rep.Checked, len(rep.Violations), omissions)
}

// The centrepiece: MajorCAN_5's COMPLETE two-flip fault space over the
// whole decision region (positions 1..3m+5, all stations) contains no
// inconsistency. Note two flips are exactly what defeats CAN and MinorCAN.
func TestMajorCAN5TwoErrorExhaustive(t *testing.T) {
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:   core.MustMajorCAN(5),
		Stations: 4,
		MaxFlips: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Errorf("MajorCAN_5 must survive every <=2-flip pattern:\n%s", rep.Summary())
	}
	t.Logf("MajorCAN_5, k<=2: %d patterns, all consistent", rep.Checked)
}

// MajorCAN_3 at its design limit: every <=3-flip pattern over its decision
// region must stay consistent (tolerance m = 3).
func TestMajorCAN3ThreeErrorExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive k=3 space in -short mode")
	}
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:   core.MustMajorCAN(3),
		Stations: 3,
		MaxFlips: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Errorf("MajorCAN_3 must survive every <=3-flip pattern:\n%s", rep.Summary())
	}
	t.Logf("MajorCAN_3, k<=3: %d patterns, all consistent", rep.Checked)
}

// The guarantee is not an artefact of the 4-station default: the complete
// <=2-flip space stays consistent across bus sizes.
func TestMajorCAN5TwoErrorExhaustiveAcrossBusSizes(t *testing.T) {
	for _, stations := range []int{3, 5, 6} {
		rep, _, err := Exhaustive(context.Background(), Config{
			Policy:   core.MustMajorCAN(5),
			Stations: stations,
			MaxFlips: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Consistent() {
			t.Errorf("stations=%d: %s", stations, rep.Summary())
		}
		t.Logf("stations=%d: %d patterns, all consistent", stations, rep.Checked)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := Exhaustive(context.Background(), Config{Policy: core.NewStandard(), Stations: 2, MaxFlips: 1}); err == nil {
		t.Error("too few stations must be rejected")
	}
	if _, _, err := Exhaustive(context.Background(), Config{Policy: core.NewStandard(), Stations: 4, MaxFlips: 0}); err == nil {
		t.Error("zero flips must be rejected")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Consistent: "consistent", Omission: "omission", Duplicate: "duplicate",
		LostAll: "lost-all", Stuck: "stuck",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d) = %q, want %q", o, o.String(), want)
		}
	}
}
