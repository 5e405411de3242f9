package sim

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/trace"
)

// OverheadCase selects which frame-duration case to measure.
type OverheadCase uint8

const (
	// BestCase measures an error-free frame.
	BestCase OverheadCase = iota + 1
	// WorstCase measures a frame with an error at the last EOF bit of one
	// receiver (the case that maximally extends the MajorCAN episode).
	WorstCase
)

func (c OverheadCase) String() string {
	if c == WorstCase {
		return "worst"
	}
	return "best"
}

// FrameOccupancy measures how many bit slots one frame transmission keeps
// the bus busy under the given policy: from the SOF until the transmitter
// enters intermission (delimiters included, intermission excluded).
func FrameOccupancy(policy node.EOFPolicy, c OverheadCase) (int, error) {
	var script *errmodel.Script
	if c == WorstCase {
		script = errmodel.NewScript().FlipEOF(1, policy.EOFBits(), 1)
	}
	rec := trace.NewRecorder()
	f := &frame.Frame{ID: 0x2AA, Data: []byte{0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA}}
	cluster, quiet, _, err := RunFrame(policy, 4, f, script, -1, []bus.Probe{rec}, 4000)
	if err != nil {
		return 0, err
	}
	if !quiet {
		return 0, fmt.Errorf("sim: overhead measurement did not quiesce under %s", policy.Name())
	}
	sof, ok := rec.FirstSlot(0, bus.PhaseFrame)
	if !ok {
		return 0, fmt.Errorf("sim: no frame observed")
	}
	// The frame occupies the bus from the SOF until the transmitter goes
	// idle, minus the trailing intermission (which exists in both cases).
	idle := uint64(0)
	found := false
	for _, r := range rec.Records() {
		if r.Slot > sof && r.Views[0].Phase == bus.PhaseIdle {
			idle, found = r.Slot, true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("sim: transmitter never returned to idle under %s", policy.Name())
	}
	if cluster.Nodes[0].TxSuccesses() != 1 {
		return 0, fmt.Errorf("sim: frame not accepted in %s case under %s", c, policy.Name())
	}
	return int(idle-sof) - frame.IntermissionBits, nil
}

// OverheadRow compares a MajorCAN_m variant against standard CAN.
type OverheadRow struct {
	M int
	// BestSlots / WorstSlots are measured bus occupancies of one frame.
	BestSlots, WorstSlots int
	// BestOverhead / WorstOverhead are measured differences to standard
	// CAN's best case.
	BestOverhead, WorstOverhead int
	// PaperBest / PaperWorst are the paper's formulas 2m-7 and 4m-9.
	PaperBest, PaperWorst int
}

// MeasureOverhead produces the overhead table for the given m values,
// including the standard CAN baseline measurements.
func MeasureOverhead(policyFor func(m int) node.EOFPolicy, baseline node.EOFPolicy, ms []int) ([]OverheadRow, int, int, error) {
	canBest, err := FrameOccupancy(baseline, BestCase)
	if err != nil {
		return nil, 0, 0, err
	}
	canWorst, err := FrameOccupancy(baseline, WorstCase)
	if err != nil {
		return nil, 0, 0, err
	}
	rows := make([]OverheadRow, 0, len(ms))
	for _, m := range ms {
		p := policyFor(m)
		best, err := FrameOccupancy(p, BestCase)
		if err != nil {
			return nil, 0, 0, err
		}
		worst, err := FrameOccupancy(p, WorstCase)
		if err != nil {
			return nil, 0, 0, err
		}
		rows = append(rows, OverheadRow{
			M:             m,
			BestSlots:     best,
			WorstSlots:    worst,
			BestOverhead:  best - canBest,
			WorstOverhead: worst - canBest,
			PaperBest:     2*m - 7,
			PaperWorst:    4*m - 9,
		})
	}
	return rows, canBest, canWorst, nil
}
