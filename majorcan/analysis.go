package majorcan

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/scenario"
	"repro/internal/verify"
)

// Model exposes the paper's probabilistic model (Section 4).
type Model = analytic.Params

// ReferenceModel returns the paper's Table 1 configuration (32 nodes,
// 1 Mbps, 90% load, 110-bit frames) at the given bit error rate.
func ReferenceModel(ber float64) Model { return analytic.Reference(ber) }

// Table1 computes the paper's Table 1 for its three bit error rates.
func Table1() []analytic.Table1Row { return analytic.Table1() }

// RequiredTolerance returns the smallest MajorCAN m whose residual rate of
// beyond-tolerance frames stays below target incidents/hour at the given
// bit error rate (paper reference configuration).
func RequiredTolerance(ber, target float64) (int, error) {
	return analytic.Reference(ber).RequiredM(target, 64)
}

// SafetyReference is the aerospace safety number the paper compares
// against: 1e-9 incidents/hour.
const SafetyReference = analytic.SafetyReference

// ScenarioResult is the outcome of a replayed paper scenario.
type ScenarioResult struct {
	// Name identifies the scenario.
	Name string
	// Summary is a one-paragraph human-readable verdict.
	Summary string
	// Inconsistent reports an inconsistent message omission (the Agreement
	// violation the paper analyses).
	Inconsistent bool
	// DoubleReception reports an At-most-once violation.
	DoubleReception bool
	// Timeline is the per-node bit timeline around the end of frame, in
	// the style of the paper's figures.
	Timeline string
}

func wrapOutcome(out *scenario.Outcome) ScenarioResult {
	return ScenarioResult{
		Name:            out.Name,
		Summary:         out.Summary(),
		Inconsistent:    out.Fate == verify.Omission,
		DoubleReception: out.Fate == verify.Duplicate,
		Timeline:        out.Timeline(),
	}
}

// ReplayNewScenario replays the paper's Fig. 3 disturbance pattern (the
// two-error scenario that defeats standard CAN and MinorCAN) under the
// given protocol.
func ReplayNewScenario(p Protocol) (ScenarioResult, error) {
	if !p.valid() {
		return ScenarioResult{}, fmt.Errorf("majorcan: protocol not set")
	}
	out, err := scenario.NewScenario(p.policy)
	if err != nil {
		return ScenarioResult{}, err
	}
	return wrapOutcome(out), nil
}

// ReplayFigure replays one of the paper's figures: "1a", "1b", "1c",
// "3a", "3b" or "5" (Fig. 5 uses MajorCAN_5; Figs. 1 use standard CAN and
// Figs. 3 their respective protocols, as in the paper).
func ReplayFigure(fig string) (ScenarioResult, error) {
	var out *scenario.Outcome
	var err error
	switch fig {
	case "1a":
		out, err = scenario.Fig1a(StandardCAN().policy)
	case "1b":
		out, err = scenario.Fig1b(StandardCAN().policy)
	case "1c":
		out, err = scenario.Fig1c(StandardCAN().policy)
	case "3a":
		out, err = scenario.Fig3a()
	case "3b":
		out, err = scenario.Fig3b()
	case "5":
		out, err = scenario.Fig5(5)
	default:
		return ScenarioResult{}, fmt.Errorf("majorcan: unknown figure %q", fig)
	}
	if err != nil {
		return ScenarioResult{}, err
	}
	return wrapOutcome(out), nil
}

// VerifyExhaustive enumerates every fault pattern of up to maxFlips
// view-bit flips over the protocol's end-of-frame decision region on a
// bus with the given number of stations and checks consistency. It
// returns a human-readable report and whether every pattern was
// consistent.
func VerifyExhaustive(p Protocol, stations, maxFlips int) (report string, consistent bool, err error) {
	if !p.valid() {
		return "", false, fmt.Errorf("majorcan: protocol not set")
	}
	rep, _, err := verify.Exhaustive(context.Background(), verify.Config{
		Policy:   p.policy,
		Stations: stations,
		MaxFlips: maxFlips,
	})
	if err != nil {
		return "", false, err
	}
	return rep.Summary(), rep.Consistent(), nil
}
