package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// SweepSpec is the canonical, JSON-serialisable description of a Monte
// Carlo consistency job: the same configuration MCConfig carries, but
// with the protocol by name and the seed range explicit, so the spec can
// travel over the wire, hash to a stable job digest, and rebuild the
// identical run anywhere. It deliberately excludes execution knobs
// (parallelism, telemetry): a sweep's outcome is independent of worker
// count, so those must not perturb the content address.
type SweepSpec struct {
	// Protocol selects the variant, as accepted by core.ParsePolicy.
	Protocol string `json:"protocol"`
	// Nodes is the number of stations (default 5).
	Nodes int `json:"nodes"`
	// Frames is the number of application frames broadcast per seed
	// (default 1000).
	Frames int `json:"frames"`
	// BerStar is the per-node per-bit view-flip probability.
	BerStar float64 `json:"berStar"`
	// Seed is the first RNG seed.
	Seed int64 `json:"seed"`
	// Seeds is the number of consecutive seeds (Seed, Seed+1, ...) the
	// sweep covers (default 1).
	Seeds int `json:"seeds"`
	// EOFOnly restricts disturbances to the end-of-frame region, where
	// the paper's scenarios live (unweighted: rates are per gated frame,
	// conditioned on a clean frame outside the region; MCConfig.EOFOnly).
	EOFOnly bool `json:"eofOnly"`
	// ResetCounters clears error counters between frames.
	ResetCounters bool `json:"resetCounters"`
	// RotateOrigins sends frame i from station i mod Nodes.
	RotateOrigins bool `json:"rotateOrigins,omitempty"`
	// GlobalModel uses the whole-bus error model instead of ber*.
	GlobalModel bool `json:"globalModel,omitempty"`
	// WarningSwitchOff enables the paper's switch-off policy.
	WarningSwitchOff bool `json:"warningSwitchOff,omitempty"`
	// PayloadBytes sets the frame payload size (default 8).
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// SlotsPerFrame bounds simulation time per frame (default 4000).
	SlotsPerFrame int `json:"slotsPerFrame,omitempty"`
}

// Bounds on a sweep spec. They admit every sweep the repository runs (the
// 32-station reference bus, seed sweeps in the hundreds, tens of
// thousands of frames per seed) and refuse specs whose allocations alone
// would exhaust memory: a spec reaches Validate from the network, and a
// service journals a job before it runs it.
const (
	maxSweepNodes  = 64
	maxSweepFrames = 1_000_000
	maxSweepSeeds  = 100_000
)

// Normalize fills defaulted fields in place, so that specs differing only
// in spelled-out defaults canonicalise to the same bytes.
func (s *SweepSpec) Normalize() {
	if s.Nodes == 0 {
		s.Nodes = 5
	}
	if s.Frames == 0 {
		s.Frames = 1000
	}
	if s.Seeds == 0 {
		s.Seeds = 1
	}
}

// Validate checks the spec's structural invariants.
func (s SweepSpec) Validate() error {
	if _, err := core.ParsePolicy(s.Protocol); err != nil {
		return fmt.Errorf("sim: sweep spec: %w", err)
	}
	if s.Nodes < 2 || s.Nodes > maxSweepNodes {
		return fmt.Errorf("sim: sweep spec nodes %d outside [2,%d]", s.Nodes, maxSweepNodes)
	}
	if s.Frames < 1 || s.Frames > maxSweepFrames {
		return fmt.Errorf("sim: sweep spec frames %d outside [1,%d]", s.Frames, maxSweepFrames)
	}
	if s.Seeds < 1 || s.Seeds > maxSweepSeeds {
		return fmt.Errorf("sim: sweep spec seeds %d outside [1,%d]", s.Seeds, maxSweepSeeds)
	}
	if s.BerStar < 0 || s.BerStar > 1 {
		return fmt.Errorf("sim: sweep spec berStar %g outside [0,1]", s.BerStar)
	}
	if s.PayloadBytes < 0 || s.PayloadBytes > 8 {
		return fmt.Errorf("sim: sweep spec payloadBytes %d outside [0,8]", s.PayloadBytes)
	}
	return nil
}

// Config resolves the spec to the MCConfig of its first seed.
func (s SweepSpec) Config() (MCConfig, error) {
	if err := s.Validate(); err != nil {
		return MCConfig{}, err
	}
	policy, err := core.ParsePolicy(s.Protocol)
	if err != nil {
		return MCConfig{}, err
	}
	return MCConfig{
		Policy:           policy,
		Nodes:            s.Nodes,
		Frames:           s.Frames,
		BerStar:          s.BerStar,
		Seed:             s.Seed,
		PayloadBytes:     s.PayloadBytes,
		RotateOrigins:    s.RotateOrigins,
		SlotsPerFrame:    s.SlotsPerFrame,
		WarningSwitchOff: s.WarningSwitchOff,
		EOFOnly:          s.EOFOnly,
		ResetCounters:    s.ResetCounters,
		GlobalModel:      s.GlobalModel,
	}, nil
}

// SeedList expands the seed range.
func (s SweepSpec) SeedList() []int64 {
	seeds := make([]int64, s.Seeds)
	for i := range seeds {
		seeds[i] = s.Seed + int64(i)
	}
	return seeds
}

// PointOutcome is the serialisable result of one sweep point.
type PointOutcome struct {
	Seed            int64  `json:"seed"`
	Slots           uint64 `json:"slots"`
	BitFlips        uint64 `json:"bitFlips"`
	FramesSent      int    `json:"framesSent"`
	IMOs            int    `json:"imos"`
	Duplicates      int    `json:"duplicates"`
	LostEverywhere  int    `json:"lostEverywhere"`
	Incomplete      int    `json:"incomplete"`
	AtomicBroadcast bool   `json:"atomicBroadcast"`
	Cancelled       bool   `json:"cancelled,omitempty"`
}

// SweepOutcome is the serialisable result of a whole sweep job: the
// normalized spec it ran, every point, and the aggregate. Deterministic
// field order and content: byte-identical for any parallelism.
type SweepOutcome struct {
	Spec    SweepSpec      `json:"spec"`
	Points  []PointOutcome `json:"points"`
	Summary SweepSummary   `json:"summary"`
}

// RunSweepSpec executes a sweep spec: the entry point the simulation
// service's scheduler and the mcsim CLI share. Cancelling ctx skips
// unstarted points (they come back flagged Cancelled, tallied in
// Summary.Cancelled) while running points finish, so a partial aggregate
// stays valid — the same code path serves an interactive SIGINT and a
// server drain. Parallelism bounds concurrent simulations; tel may be nil.
func RunSweepSpec(ctx context.Context, spec SweepSpec, parallelism int, tel PointTelemetry) (*SweepOutcome, error) {
	return RunSweepSpecResumable(ctx, spec, parallelism, tel, nil)
}
