package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/abcheck"
)

// CampaignSpec is the canonical, JSON-serialisable description of a
// fault-injection campaign job: the base cluster configuration plus the
// search parameters, protocols by name and probes by name, so the spec
// travels over the wire and hashes to a stable job digest. Execution
// knobs (telemetry, progress callbacks) are deliberately excluded — they
// do not change the campaign's findings, so they must not perturb the
// content address.
type CampaignSpec struct {
	// Protocol selects the variant, as accepted by ParseProtocol.
	Protocol string `json:"protocol"`
	// Nodes is the number of stations (default 5).
	Nodes int `json:"nodes"`
	// Frames is the number of frames broadcast per trial (default 1).
	Frames int `json:"frames"`
	// Trials is the number of random scripts executed (default 100).
	Trials int `json:"trials"`
	// TrialOffset is the global index of the first trial: the campaign
	// runs trials [TrialOffset, TrialOffset+Trials). Per-trial RNGs are
	// seeded by the global index, so splitting a [0, N) campaign into
	// contiguous offset ranges reproduces exactly the same trials — the
	// fleet coordinator's shard handle. Zero is the whole-campaign default.
	TrialOffset int `json:"trialOffset,omitempty"`
	// MaxFaults bounds the faults per trial (default 4).
	MaxFaults int `json:"maxFaults"`
	// Seed makes the search reproducible.
	Seed int64 `json:"seed"`
	// Kinds restricts the fault classes drawn; empty means all, and
	// Normalize sorts and deduplicates so equivalent lists hash equally.
	Kinds []FaultKind `json:"kinds,omitempty"`
	// Probes names the invariants checked (see ParseProbes); empty means
	// the default probe set.
	Probes []string `json:"probes,omitempty"`
	// StopAtFirst ends the campaign at the first finding.
	StopAtFirst bool `json:"stopAtFirst,omitempty"`
	// RotateOrigins sends frame i from station i mod Nodes.
	RotateOrigins bool `json:"rotateOrigins,omitempty"`
	// AutoRecover enables bus-off recovery on every node.
	AutoRecover bool `json:"autoRecover,omitempty"`
	// WarningSwitchOff enables the paper's switch-off policy.
	WarningSwitchOff bool `json:"warningSwitchOff,omitempty"`
	// PayloadBytes sets the frame payload size (default 8).
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// SlotsPerFrame bounds simulation time per frame (default 4000).
	SlotsPerFrame int `json:"slotsPerFrame,omitempty"`
}

// Bounds on a campaign spec. They admit every campaign the repository
// runs (the Makefile and README searches, the 4,000-trial EXPERIMENTS
// recipes, the benchmark's small campaigns) and refuse specs whose work
// or allocations alone would exhaust the process: a spec reaches
// Validate from the network, and a service journals a job before it runs
// it. Trial indices of a sharded campaign stay below maxCampaignTrials
// too, so the fleet's offset ranges never overflow.
const (
	maxCampaignTrials = 1_000_000
	maxCampaignFaults = 64
)

// Normalize fills defaulted fields and canonicalises list order in place.
func (c *CampaignSpec) Normalize() {
	if c.Nodes == 0 {
		c.Nodes = 5
	}
	if c.Frames == 0 {
		c.Frames = 1
	}
	if c.Trials == 0 {
		c.Trials = 100
	}
	if c.MaxFaults == 0 {
		c.MaxFaults = 4
	}
	c.Kinds = dedupeSorted(c.Kinds)
	c.Probes = dedupeSorted(c.Probes)
}

func dedupeSorted[T ~string](in []T) []T {
	if len(in) == 0 {
		return nil
	}
	out := append([]T(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 1
	for _, v := range out[1:] {
		if v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// Validate checks the spec's structural invariants.
func (c CampaignSpec) Validate() error {
	if _, err := c.Campaign(); err != nil {
		return err
	}
	return nil
}

// Campaign resolves the spec to a runnable Campaign. Note that the
// drawn-fault ordering depends on the (sorted) kind list, so Normalize
// before hashing or comparing campaigns.
func (c CampaignSpec) Campaign() (Campaign, error) {
	if _, err := ParseProtocol(c.Protocol); err != nil {
		return Campaign{}, err
	}
	probes, err := ParseProbes(strings.Join(c.Probes, ","))
	if err != nil {
		return Campaign{}, err
	}
	known := make(map[FaultKind]bool)
	for _, k := range Kinds() {
		known[k] = true
	}
	for _, k := range c.Kinds {
		if !known[k] {
			return Campaign{}, fmt.Errorf("chaos: unknown fault kind %q (known: %v)", k, Kinds())
		}
	}
	if c.Trials < 0 || c.Trials > maxCampaignTrials {
		return Campaign{}, fmt.Errorf("chaos: campaign trials %d outside [0,%d]", c.Trials, maxCampaignTrials)
	}
	if c.TrialOffset < 0 || c.TrialOffset > maxCampaignTrials-c.Trials {
		return Campaign{}, fmt.Errorf("chaos: campaign trialOffset %d outside [0,%d] for %d trials", c.TrialOffset, maxCampaignTrials-c.Trials, c.Trials)
	}
	if c.MaxFaults < 0 || c.MaxFaults > maxCampaignFaults {
		return Campaign{}, fmt.Errorf("chaos: campaign maxFaults %d outside [0,%d]", c.MaxFaults, maxCampaignFaults)
	}
	camp := Campaign{
		Name: "spec",
		Base: Script{
			Version:          ScriptVersion,
			Protocol:         c.Protocol,
			Nodes:            c.Nodes,
			Frames:           c.Frames,
			PayloadBytes:     c.PayloadBytes,
			RotateOrigins:    c.RotateOrigins,
			AutoRecover:      c.AutoRecover,
			WarningSwitchOff: c.WarningSwitchOff,
			SlotsPerFrame:    c.SlotsPerFrame,
		},
		Trials:      c.Trials,
		StartTrial:  c.TrialOffset,
		MaxFaults:   c.MaxFaults,
		FaultKinds:  append([]FaultKind(nil), c.Kinds...),
		Seed:        c.Seed,
		Probes:      probes,
		StopAtFirst: c.StopAtFirst,
	}
	if err := camp.Base.Validate(); err != nil {
		return Campaign{}, err
	}
	return camp, nil
}

// CampaignOutcome is the serialisable result of a campaign job.
type CampaignOutcome struct {
	Spec       CampaignSpec `json:"spec"`
	Trials     int          `json:"trials"`
	Executions int          `json:"executions"`
	Findings   []Artifact   `json:"findings"`
}

// RunCampaignSpec executes a campaign spec with optional telemetry: the
// entry point the simulation service's scheduler and the chaos CLI
// share. Cancelling ctx stops the search, inside a trial if one is
// running, and returns the outcome of the trials completed before it
// (Trials counts them) together with ctx's error.
func RunCampaignSpec(ctx context.Context, spec CampaignSpec, t Telemetry, onTrial func(done int)) (*CampaignOutcome, error) {
	return RunCampaignSpecResumable(ctx, spec, t, onTrial, nil, nil)
}

// RunCampaignSpecResumable is RunCampaignSpec with checkpoint plumbing:
// resume, if non-nil, preloads progress recorded by an earlier run's
// onProgress callback, and onProgress (if non-nil) observes cumulative
// progress at every trial boundary. Per-trial RNGs make the resumed
// outcome identical to an uninterrupted run's — this is the recovery
// path the simulation service uses for crashed campaign jobs.
func RunCampaignSpecResumable(ctx context.Context, spec CampaignSpec, t Telemetry, onTrial func(done int), resume *CampaignProgress, onProgress func(CampaignProgress)) (*CampaignOutcome, error) {
	spec.Normalize()
	camp, err := spec.Campaign()
	if err != nil {
		return nil, err
	}
	camp.Events = t.Events
	camp.Metrics = t.Metrics
	camp.OnTrial = onTrial
	camp.Resume = resume
	camp.OnProgress = onProgress
	res, err := camp.Run(ctx)
	if res == nil {
		return nil, err
	}
	out := &CampaignOutcome{
		Spec:       spec,
		Trials:     res.Trials,
		Executions: res.Executions,
		Findings:   make([]Artifact, 0, len(res.Findings)),
	}
	for _, f := range res.Findings {
		out.Findings = append(out.Findings, f.Artifact("spec"))
	}
	return out, err
}

// ParseProbes maps a comma-separated probe list onto the campaign probe
// set: "all" (or empty) selects the default set; AB properties may be
// selected individually to narrow the search (e.g. "agreement" to hunt
// for the paper's inconsistency scenarios only). This is the single
// probe-name codec shared by the chaos CLI and the job-spec layer.
func ParseProbes(csv string) ([]Probe, error) {
	if csv == "" || csv == "all" {
		return nil, nil
	}
	var probes []Probe
	var props []abcheck.Property
	for _, s := range strings.Split(csv, ",") {
		switch strings.TrimSpace(s) {
		case "ab":
			probes = append(probes, AB())
		case "validity":
			props = append(props, abcheck.Validity)
		case "agreement":
			props = append(props, abcheck.Agreement)
		case "at-most-once":
			props = append(props, abcheck.AtMostOnce)
		case "non-triviality":
			props = append(props, abcheck.NonTriviality)
		case "total-order":
			props = append(props, abcheck.TotalOrder)
		case "liveness":
			probes = append(probes, Liveness())
		case "confinement":
			probes = append(probes, Confinement())
		default:
			return nil, fmt.Errorf("chaos: unknown probe %q (known: ab, validity, agreement, at-most-once, non-triviality, total-order, liveness, confinement)", s)
		}
	}
	if len(props) > 0 {
		probes = append(probes, AB(props...))
	}
	return probes, nil
}

// ParseKinds maps a comma-separated fault-kind list onto FaultKinds;
// "all" (or empty) selects every kind.
func ParseKinds(csv string) ([]FaultKind, error) {
	if csv == "" || csv == "all" {
		return nil, nil
	}
	known := make(map[FaultKind]bool)
	for _, k := range Kinds() {
		known[k] = true
	}
	var out []FaultKind
	for _, s := range strings.Split(csv, ",") {
		k := FaultKind(strings.TrimSpace(s))
		if !known[k] {
			return nil, fmt.Errorf("chaos: unknown fault kind %q (known: %v)", k, Kinds())
		}
		out = append(out, k)
	}
	return out, nil
}
