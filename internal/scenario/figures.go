package scenario

import (
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/verify"
)

// Default station layout for the figure scenarios: station 0 is the
// transmitter, stations 1-2 form the X set and stations 3-4 the Y set.
var (
	defaultX = []int{1, 2}
	defaultY = []int{3, 4}
)

const defaultNodes = 5

// tx is the transmitter's station set.
var tx = []int{0}

// lastEOF returns the 1-based EOF-relative position of the last EOF bit
// for the given policy.
func lastEOF(p node.EOFPolicy) int { return p.EOFBits() }

// at flips the view of every listed station at the 1-based EOF-relative
// position pos.
func at(stations []int, pos int) verify.Pattern {
	p := make(verify.Pattern, len(stations))
	for i, s := range stations {
		p[i] = verify.Flip{Station: s, Pos: pos}
	}
	return p
}

// fig3Pattern is the paper's new two-disturbance scenario: the X set is
// disturbed at the last but one EOF bit and the transmitter at the last.
func fig3Pattern(policy node.EOFPolicy) verify.Pattern {
	return slices.Concat(at(tx, lastEOF(policy)), at(defaultX, lastEOF(policy)-1))
}

func baseConfig(name string, policy node.EOFPolicy) Config {
	return Config{
		Name:   name,
		Policy: policy,
		Nodes:  defaultNodes,
		X:      append([]int(nil), defaultX...),
		Y:      append([]int(nil), defaultY...),
	}
}

// Fig1a reproduces Fig. 1a: the X set sees an incorrect dominant value in
// the last bit of the EOF; the last-bit rule makes every node accept the
// frame consistently.
func Fig1a(policy node.EOFPolicy) (*Outcome, error) {
	cfg := baseConfig("Fig. 1a", policy)
	cfg.Script = at(defaultX, lastEOF(policy)).Fill(errmodel.NewScript())
	return Run(cfg)
}

// Fig1b reproduces Fig. 1b: a disturbance corrupts the last but one EOF bit
// of the X set. In standard CAN the X set rejects and the transmitter
// retransmits, but the Y set accepts under the last-bit rule and therefore
// receives the frame twice (double reception).
func Fig1b(policy node.EOFPolicy) (*Outcome, error) {
	cfg := baseConfig("Fig. 1b", policy)
	cfg.Script = at(defaultX, lastEOF(policy)-1).Fill(errmodel.NewScript())
	return Run(cfg)
}

// Fig1c reproduces Fig. 1c: the Fig. 1b scenario, but the transmitter
// fails before the retransmission. In standard CAN the Y set keeps the
// frame while the X set never receives it: an inconsistent message
// omission.
func Fig1c(policy node.EOFPolicy) (*Outcome, error) {
	cfg := baseConfig("Fig. 1c", policy)
	cfg.Script = at(defaultX, lastEOF(policy)-1).Fill(errmodel.NewScript())
	cfg.CrashTx = true
	return Run(cfg)
}

// Fig2 reproduces Fig. 2: MinorCAN achieving consistency in the scenarios
// of Fig. 1. It returns the outcomes of the three sub-scenarios run under
// the MinorCAN policy.
func Fig2() (a, b, c *Outcome, err error) {
	p := core.NewMinorCAN()
	if a, err = Fig1a(p); err != nil {
		return nil, nil, nil, err
	}
	a.Name = "Fig. 2 (1a under MinorCAN)"
	if b, err = Fig1b(p); err != nil {
		return nil, nil, nil, err
	}
	b.Name = "Fig. 2 (1b under MinorCAN)"
	if c, err = Fig1c(p); err != nil {
		return nil, nil, nil, err
	}
	c.Name = "Fig. 2 (1c under MinorCAN)"
	return a, b, c, nil
}

// Fig3a reproduces the paper's new inconsistency scenario on standard CAN:
// the X set is disturbed at the last but one EOF bit (it rejects and sends
// an error flag), the Y set sees that flag in its last EOF bit (it accepts
// under the last-bit rule), and an additional disturbance hides the flag
// from the transmitter's view of its last EOF bit — so no retransmission
// happens even though the transmitter stays correct. Two disturbances are
// enough for an inconsistent message omission.
func Fig3a() (*Outcome, error) {
	policy := core.NewStandard()
	cfg := baseConfig("Fig. 3a", policy)
	cfg.Script = fig3Pattern(policy).Fill(errmodel.NewScript())
	return Run(cfg)
}

// Fig3b reproduces the same scenario under MinorCAN: the Y set decides it
// detected a primary error (it samples the transmitter's overload flag
// after its own flag) and accepts, while the X set rejects — MinorCAN is
// defeated too.
func Fig3b() (*Outcome, error) {
	policy := core.NewMinorCAN()
	cfg := baseConfig("Fig. 3b", policy)
	cfg.Script = fig3Pattern(policy).Fill(errmodel.NewScript())
	return Run(cfg)
}

// Fig5 reproduces Fig. 5: MajorCAN_5 achieving consistency in the presence
// of five errors. The X set detects a dominant bit in the 3rd EOF bit and
// sends a 6-bit error flag; the Y set sees it one bit later; the
// transmitter misses it twice (disturbances in its view of EOF bits 4 and
// 5) and so first detects the error in the 6th bit — the second sub-field —
// accepting and notifying with an extended error flag; two further
// disturbances corrupt single sampling-window bits of X and Y, which the
// majority vote absorbs. Every node accepts.
func Fig5(m int) (*Outcome, error) {
	policy, err := core.NewMajorCAN(m)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig(fmt.Sprintf("Fig. 5 (MajorCAN_%d)", m), policy)
	win := policy.WindowStart() // m+7
	cfg.Script = slices.Concat(
		at(defaultX, 3),     // error seen by X at EOF bit 3
		at(tx, 4),           // transmitter misses the flag ...
		at(tx, 5),           // ... twice
		at(defaultX, win+1), // sampling-window error at X
		at(defaultY, win+3), // sampling-window error at Y
	).Fill(errmodel.NewScript())
	return Run(cfg)
}

// NewScenario runs the paper's Fig. 3 disturbance pattern (last-but-one
// bit at X, last bit at the transmitter) under an arbitrary policy. Under
// MajorCAN the same two disturbances must NOT produce an inconsistency.
func NewScenario(policy node.EOFPolicy) (*Outcome, error) {
	cfg := baseConfig("new scenario (Fig. 3 pattern)", policy)
	cfg.Script = fig3Pattern(policy).Fill(errmodel.NewScript())
	return Run(cfg)
}

// Fig4Row describes the behaviour of a MajorCAN node detecting an error at
// one position, as in the paper's Fig. 4.
type Fig4Row struct {
	// Position is the 1-based EOF bit position of the error; 0 denotes a
	// CRC error (flag from the first EOF bit, no sampling).
	Position int
	// Extended reports whether the node notified acceptance with an
	// extended error flag.
	Extended bool
	// Sampled reports whether the node performed the acceptance sampling.
	Sampled bool
	// Verdict is the node's final decision.
	Verdict node.Verdict
	// BusConsistent reports whether all live stations reached the same
	// verdict for the first transmission attempt.
	BusConsistent bool
}

// Label renders the row's position like the paper ("CRC error",
// "Error in 3rd", ...).
func (r Fig4Row) Label() string {
	if r.Position == 0 {
		return "CRC error"
	}
	return fmt.Sprintf("Error in %s bit of EOF", ordinal(r.Position))
}

func ordinal(n int) string {
	switch n % 10 {
	case 1:
		if n%100 != 11 {
			return fmt.Sprintf("%dst", n)
		}
	case 2:
		if n%100 != 12 {
			return fmt.Sprintf("%dnd", n)
		}
	case 3:
		if n%100 != 13 {
			return fmt.Sprintf("%drd", n)
		}
	}
	return fmt.Sprintf("%dth", n)
}

// Fig4 reproduces the behaviour table of Fig. 4 for MajorCAN_m: for every
// EOF bit position (and for a CRC error) a single receiver is disturbed at
// that position and its flag type, sampling activity and verdict are
// recorded.
func Fig4(m int) ([]Fig4Row, error) {
	policy, err := core.NewMajorCAN(m)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, 2*m+1)

	// CRC error: corrupt one CRC bit in the view of station 1 so its CRC
	// check fails while everyone else's succeeds.
	crcRule := &errmodel.Rule{
		Stations: []int{1},
		Count:    1,
		When: func(_ uint64, _ int, v bus.ViewContext) bool {
			return v.Phase == bus.PhaseFrame && v.Field == frame.FieldCRC && v.Index == 7
		},
	}
	row, err := fig4Run(policy, crcRule, 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	for pos := 1; pos <= 2*m; pos++ {
		rule := errmodel.AtEOFBit([]int{1}, pos, 1)
		row, err := fig4Run(policy, rule, pos)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
