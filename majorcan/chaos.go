package majorcan

import (
	"context"
	"fmt"

	"repro/internal/chaos"
)

// ChaosCampaignConfig configures a randomised fault-injection campaign:
// random disturbance scripts are executed against a cluster, probed for
// Atomic Broadcast, liveness and fault-confinement violations, and every
// counterexample is shrunk to a minimal script.
type ChaosCampaignConfig struct {
	// Protocol applies to every station.
	Protocol Protocol
	// Nodes is the number of stations (>= 3).
	Nodes int
	// Frames is the number of frames broadcast per trial (default 1).
	Frames int
	// Trials is the number of random scripts to try (default 100).
	Trials int
	// MaxFaults bounds the disturbances per script (default 4).
	MaxFaults int
	// Seed makes the campaign reproducible.
	Seed int64
	// FaultKinds restricts the fault classes drawn: "view-flip",
	// "stuck-dominant", "mute", "crash", "bus-off", "clock-glitch"
	// (default: all).
	FaultKinds []string
	// RotateOrigins sends frame i from station i mod Nodes.
	RotateOrigins bool
	// AutoRecover enables bus-off recovery on every node, so "bus-off"
	// faults become crash-then-restart schedules.
	AutoRecover bool
	// WarningSwitchOff enables the paper's switch-off policy.
	WarningSwitchOff bool
	// StopAtFirst ends the campaign at the first finding.
	StopAtFirst bool
}

// ChaosFinding is one minimal counterexample found by a campaign.
type ChaosFinding struct {
	// Trial is the campaign trial that found it.
	Trial int
	// Faults renders the shrunk, minimal disturbance script.
	Faults []string
	// Violations are the invariant violations the script provokes.
	Violations []string
	// Artifact is the deterministic JSON replay artifact; feed it to
	// ReplayChaosArtifact or `chaos -replay` to re-execute bit-for-bit.
	Artifact []byte
}

// RunChaosCampaign executes a fault-injection campaign and returns its
// findings in trial order.
func RunChaosCampaign(cfg ChaosCampaignConfig) ([]ChaosFinding, error) {
	if !cfg.Protocol.valid() {
		return nil, fmt.Errorf("majorcan: ChaosCampaignConfig.Protocol not set")
	}
	frames := cfg.Frames
	if frames == 0 {
		frames = 1
	}
	kinds := make([]chaos.FaultKind, len(cfg.FaultKinds))
	for i, k := range cfg.FaultKinds {
		kinds[i] = chaos.FaultKind(k)
	}
	c := chaos.Campaign{
		Name: "majorcan-api",
		Base: chaos.Script{
			Version:          chaos.ScriptVersion,
			Protocol:         cfg.Protocol.Name(),
			Nodes:            cfg.Nodes,
			Frames:           frames,
			RotateOrigins:    cfg.RotateOrigins,
			AutoRecover:      cfg.AutoRecover,
			WarningSwitchOff: cfg.WarningSwitchOff,
		},
		Trials:      cfg.Trials,
		MaxFaults:   cfg.MaxFaults,
		FaultKinds:  kinds,
		Seed:        cfg.Seed,
		StopAtFirst: cfg.StopAtFirst,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		return nil, err
	}
	out := make([]ChaosFinding, 0, len(res.Findings))
	for _, f := range res.Findings {
		artifact, err := f.Artifact(c.Name).Encode()
		if err != nil {
			return nil, err
		}
		faults := make([]string, len(f.Shrunk.Faults))
		for i, fault := range f.Shrunk.Faults {
			faults[i] = fault.String()
		}
		out = append(out, ChaosFinding{
			Trial:      f.Trial,
			Faults:     faults,
			Violations: f.Violations,
			Artifact:   artifact,
		})
	}
	return out, nil
}

// ReplayChaosArtifact re-executes a campaign artifact and verifies that it
// reproduces the recorded verdict bit-for-bit. It returns the replayed
// violations and whether digest and verdict both matched the recording.
func ReplayChaosArtifact(artifact []byte) (violations []string, matches bool, err error) {
	a, err := chaos.DecodeArtifact(artifact)
	if err != nil {
		return nil, false, err
	}
	rr, err := chaos.Replay(context.Background(), a, chaos.Telemetry{})
	if err != nil {
		return nil, false, err
	}
	return rr.Verdict.Violations, rr.Matches(), nil
}
