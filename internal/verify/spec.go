package verify

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Spec is the canonical, JSON-serialisable description of an exhaustive
// verification job: the Config fields with the protocol by name, so the
// spec travels over the wire and hashes to a stable job digest.
// Parallelism is excluded — the enumerated pattern space and the verdict
// are independent of worker count.
type Spec struct {
	// Protocol selects the variant, as accepted by core.ParsePolicy.
	Protocol string `json:"protocol"`
	// Stations is the bus size (station 0 transmits; default 4).
	Stations int `json:"stations"`
	// MaxFlips bounds the pattern size k.
	MaxFlips int `json:"maxFlips"`
	// Positions is the number of EOF-relative positions to disturb
	// (0 = the policy's full decision region).
	Positions int `json:"positions,omitempty"`
	// CrashSweep additionally crashes each station at its first flag.
	CrashSweep bool `json:"crashSweep,omitempty"`
	// SlotsBudget bounds each simulation (default 6000).
	SlotsBudget int `json:"slotsBudget,omitempty"`
	// PatternStart and PatternCount window the pattern enumeration to a
	// contiguous index range (see Config.PatternStart): the fleet
	// coordinator's shard handle. Zero values mean the whole space.
	PatternStart int `json:"patternStart,omitempty"`
	PatternCount int `json:"patternCount,omitempty"`
}

// Bounds on a verification spec. They admit every verification the
// repository runs (the MajorCAN_5 envelope is 4 stations x 20 positions)
// and refuse specs whose allocations alone would exhaust memory: a spec
// reaches Validate from the network, and a service journals a job before
// it runs it. A pattern cannot hold more flips than there are fault sites,
// and the pattern space must fit in an int, because windows index it.
const (
	maxSpecStations  = 64
	maxSpecPositions = 256
)

// Normalize fills defaulted fields in place.
func (s *Spec) Normalize() {
	if s.Stations == 0 {
		s.Stations = 4
	}
	if s.MaxFlips == 0 {
		s.MaxFlips = 1
	}
}

// Validate checks the spec's structural invariants.
func (s Spec) Validate() error {
	policy, err := core.ParsePolicy(s.Protocol)
	if err != nil {
		return fmt.Errorf("verify: spec: %w", err)
	}
	if s.Stations != 0 && (s.Stations < 3 || s.Stations > maxSpecStations) {
		return fmt.Errorf("verify: spec stations %d outside [3,%d]", s.Stations, maxSpecStations)
	}
	if s.Positions < 0 {
		return fmt.Errorf("verify: spec positions %d negative", s.Positions)
	}
	if s.SlotsBudget < 0 {
		return fmt.Errorf("verify: spec slotsBudget %d negative", s.SlotsBudget)
	}
	cfg := Config{Policy: policy, Stations: s.Stations, Positions: s.Positions}
	if cfg.Stations == 0 {
		cfg.Stations = 4
	}
	positions := cfg.positions()
	if positions < 1 || positions > maxSpecPositions {
		return fmt.Errorf("verify: spec positions %d outside [1,%d]", positions, maxSpecPositions)
	}
	if sites := cfg.Stations * positions; s.MaxFlips < 0 || s.MaxFlips > sites {
		return fmt.Errorf("verify: spec maxFlips %d outside [0,%d] (stations x positions)", s.MaxFlips, sites)
	}
	cfg.MaxFlips = s.MaxFlips
	if _, err := cfg.PatternSpace(); err != nil {
		return err
	}
	if s.PatternStart < 0 {
		return fmt.Errorf("verify: spec patternStart %d negative", s.PatternStart)
	}
	if s.PatternCount < 0 {
		return fmt.Errorf("verify: spec patternCount %d negative", s.PatternCount)
	}
	return nil
}

// PatternSpace returns the total size of the spec's pattern enumeration,
// ignoring any PatternStart/PatternCount window — what a coordinator
// partitions into shard ranges.
func (s Spec) PatternSpace() (int, error) {
	s.Normalize()
	cfg, err := s.Config(1)
	if err != nil {
		return 0, err
	}
	return cfg.PatternSpace()
}

// Config resolves the spec to a Config with the given parallelism.
func (s Spec) Config(parallelism int) (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	policy, err := core.ParsePolicy(s.Protocol)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Policy:       policy,
		Stations:     s.Stations,
		MaxFlips:     s.MaxFlips,
		Positions:    s.Positions,
		SlotsBudget:  s.SlotsBudget,
		CrashSweep:   s.CrashSweep,
		Parallelism:  parallelism,
		PatternStart: s.PatternStart,
		PatternCount: s.PatternCount,
	}, nil
}

// SpecOutcome is the serialisable result of a verification job.
type SpecOutcome struct {
	Spec       Spec     `json:"spec"`
	Checked    int      `json:"checked"`
	PatternsBy []int    `json:"patternsBy"`
	Consistent bool     `json:"consistent"`
	Violations []string `json:"violations"`
}

// RunSpec executes a verification spec: the entry point the simulation
// service's scheduler and perfbench share. Parallelism bounds
// concurrent simulations; cancelling ctx aborts the enumeration.
func RunSpec(ctx context.Context, spec Spec, parallelism int) (*SpecOutcome, error) {
	spec.Normalize()
	cfg, err := spec.Config(parallelism)
	if err != nil {
		return nil, err
	}
	rep, _, err := Exhaustive(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &SpecOutcome{
		Spec:       spec,
		Checked:    rep.Checked,
		PatternsBy: rep.PatternsBy,
		Consistent: rep.Consistent(),
		Violations: make([]string, 0, len(rep.Violations)),
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	return out, nil
}
