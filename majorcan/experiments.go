package majorcan

import (
	"fmt"

	"repro/internal/sim"
)

// ConsistencyExperiment configures a Monte Carlo consistency measurement
// through the public API.
type ConsistencyExperiment struct {
	// Protocol under test.
	Protocol Protocol
	// Nodes on the bus (>= 3).
	Nodes int
	// Frames to broadcast.
	Frames int
	// BerStar is the per-node per-bit view flip probability.
	BerStar float64
	// Seed makes the run reproducible.
	Seed int64
	// EOFOnly restricts errors to the end-of-frame decision region, where
	// the paper's scenarios live. Frames carry no likelihood weight, so
	// rates are per gated frame, conditioned on a clean frame outside the
	// region, not per frame at BerStar.
	EOFOnly bool
}

// ConsistencyResult summarises a consistency experiment.
type ConsistencyResult struct {
	// Frames actually broadcast.
	Frames int
	// InconsistentOmissions counts frames some correct receiver delivered
	// and another never did.
	InconsistentOmissions int
	// DoubleReceptions counts (frame, receiver) duplicate deliveries.
	DoubleReceptions int
	// BitFlips injected by the error model.
	BitFlips uint64
	// AtomicBroadcast reports whether all five properties held across the
	// whole run.
	AtomicBroadcast bool
	// Violations renders the property checker's findings.
	Violations string
}

// MeasureConsistency runs the experiment.
func MeasureConsistency(cfg ConsistencyExperiment) (ConsistencyResult, error) {
	if !cfg.Protocol.valid() {
		return ConsistencyResult{}, fmt.Errorf("majorcan: Protocol not set")
	}
	res, err := sim.MonteCarlo(sim.MCConfig{
		Policy:        cfg.Protocol.policy,
		Nodes:         cfg.Nodes,
		Frames:        cfg.Frames,
		BerStar:       cfg.BerStar,
		Seed:          cfg.Seed,
		EOFOnly:       cfg.EOFOnly,
		ResetCounters: true,
	})
	if err != nil {
		return ConsistencyResult{}, err
	}
	return ConsistencyResult{
		Frames:                res.FramesSent,
		InconsistentOmissions: res.IMOs,
		DoubleReceptions:      res.Duplicates,
		BitFlips:              res.BitFlips,
		AtomicBroadcast:       res.Report.AtomicBroadcast(),
		Violations:            res.Report.Summary(),
	}, nil
}

// FrameOverhead returns the measured error-free per-frame bus occupancy
// difference of the protocol against standard CAN, in bit times (the
// paper's 2m-7 for MajorCAN_m).
func FrameOverhead(p Protocol) (int, error) {
	if !p.valid() {
		return 0, fmt.Errorf("majorcan: Protocol not set")
	}
	base, err := sim.FrameOccupancy(StandardCAN().policy, sim.BestCase)
	if err != nil {
		return 0, err
	}
	got, err := sim.FrameOccupancy(p.policy, sim.BestCase)
	if err != nil {
		return 0, err
	}
	return got - base, nil
}
