// Package chaos is a declarative fault-injection campaign engine for the
// MajorCAN simulator. A Script composes disturbance sources over one
// cluster run — view flips from the errmodel vocabulary, stuck-at-dominant
// transceivers (babbling idiots), muted output windows, crash and forced
// bus-off schedules, and one-slot clock glitches. Campaigns search random
// scripts for invariant violations (Atomic Broadcast properties, liveness,
// fault confinement), shrink counterexamples delta-debugging-style to a
// minimal disturbance script, and emit deterministic JSON replay artifacts
// that re-execute bit-for-bit.
package chaos

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
)

// FaultKind names one class of injectable fault.
type FaultKind string

const (
	// ViewFlip flips one station's view of one bus bit (the paper's
	// per-node error effectivity model), located either by EOF-relative
	// position and attempt number or by absolute slot.
	ViewFlip FaultKind = "view-flip"
	// StuckDominant forces a station's transceiver output dominant for the
	// slot window [Slot, Until) — the babbling-idiot failure that jams the
	// whole bus.
	StuckDominant FaultKind = "stuck-dominant"
	// Mute forces a station's output recessive for [Slot, Until): the
	// station is temporarily disconnected from driving the bus (it cannot
	// acknowledge or signal errors) while still sampling it.
	Mute FaultKind = "mute"
	// Crash switches the station off permanently at Slot (fail-silent).
	Crash FaultKind = "crash"
	// BusOffKind forces the station's transmit error counter to the
	// bus-off limit at Slot. With Script.AutoRecover this is the
	// crash-then-restart schedule: the node falls off the bus and rejoins
	// after 128 occurrences of 11 consecutive recessive bits.
	BusOffKind FaultKind = "bus-off"
	// ClockGlitch makes the station sample one slot late at Slot: it
	// latches the previous slot's bus level (a one-slot sample-point skew).
	ClockGlitch FaultKind = "clock-glitch"
)

// Kinds lists every fault kind.
func Kinds() []FaultKind {
	return []FaultKind{ViewFlip, StuckDominant, Mute, Crash, BusOffKind, ClockGlitch}
}

// Fault is one scripted disturbance. Which location fields apply depends
// on Kind: ViewFlip uses EOFRel/Attempt (first matching frame) or an
// absolute Slot; StuckDominant and Mute use the window [Slot, Until);
// Crash, BusOffKind and ClockGlitch use Slot.
type Fault struct {
	Kind    FaultKind `json:"kind"`
	Station int       `json:"station"`
	EOFRel  int       `json:"eofRel,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Slot    uint64    `json:"slot,omitempty"`
	Until   uint64    `json:"until,omitempty"`
}

func (f Fault) String() string {
	switch f.Kind {
	case ViewFlip:
		if f.EOFRel > 0 {
			return fmt.Sprintf("%s(n%d, eof[%d], attempt %d)", f.Kind, f.Station, f.EOFRel, f.Attempt)
		}
		return fmt.Sprintf("%s(n%d, slot %d)", f.Kind, f.Station, f.Slot)
	case StuckDominant, Mute:
		return fmt.Sprintf("%s(n%d, slots [%d,%d))", f.Kind, f.Station, f.Slot, f.Until)
	default:
		return fmt.Sprintf("%s(n%d, slot %d)", f.Kind, f.Station, f.Slot)
	}
}

// Script is one deterministic fault-injection run: a cluster configuration
// plus the faults to inject. Scripts serialise to JSON and re-execute
// bit-for-bit.
type Script struct {
	// Version guards the artifact format.
	Version int `json:"version"`
	// Protocol selects the variant: "CAN", "MinorCAN" or "MajorCAN_<m>"
	// (case-insensitive, as accepted by ParseProtocol).
	Protocol string `json:"protocol"`
	// Nodes is the number of stations (>= 3).
	Nodes int `json:"nodes"`
	// Frames is the number of application frames broadcast.
	Frames int `json:"frames"`
	// PayloadBytes sets the frame payload size (default 8).
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// RotateOrigins sends frame i from station i mod Nodes.
	RotateOrigins bool `json:"rotateOrigins,omitempty"`
	// AutoRecover enables bus-off recovery on every node.
	AutoRecover bool `json:"autoRecover,omitempty"`
	// WarningSwitchOff enables the paper's switch-off policy.
	WarningSwitchOff bool `json:"warningSwitchOff,omitempty"`
	// SlotsPerFrame bounds simulation time per frame (default 4000).
	SlotsPerFrame int `json:"slotsPerFrame,omitempty"`
	// Faults are the injected disturbances.
	Faults []Fault `json:"faults"`
}

// ScriptVersion is the current artifact format version.
const ScriptVersion = 1

// Bounds on a script, following sim.SweepSpec's: a cluster allocates per
// node, and the recorder and the Atomic Broadcast checker keep per-frame
// state, so a script's size is refused before a cluster is built. The
// scripts and campaigns the repository runs stay far below both.
const (
	maxScriptNodes  = 64
	maxScriptFrames = 100_000
)

// Validate checks the script's structural invariants.
func (s Script) Validate() error {
	if s.Nodes < 3 || s.Nodes > maxScriptNodes {
		return fmt.Errorf("chaos: script nodes %d outside [3,%d]", s.Nodes, maxScriptNodes)
	}
	if s.Frames <= 0 || s.Frames > maxScriptFrames {
		return fmt.Errorf("chaos: script frames %d outside [1,%d]", s.Frames, maxScriptFrames)
	}
	if _, err := ParseProtocol(s.Protocol); err != nil {
		return err
	}
	for i, f := range s.Faults {
		if f.Station < 0 || f.Station >= s.Nodes {
			return fmt.Errorf("chaos: fault %d targets station %d of %d", i, f.Station, s.Nodes)
		}
		switch f.Kind {
		case ViewFlip:
			if f.EOFRel <= 0 && f.Slot == 0 {
				return fmt.Errorf("chaos: fault %d: view-flip needs eofRel or slot", i)
			}
		case StuckDominant, Mute:
			if f.Until <= f.Slot {
				return fmt.Errorf("chaos: fault %d: empty window [%d,%d)", i, f.Slot, f.Until)
			}
		case Crash, BusOffKind, ClockGlitch:
			// Slot 0 is legal.
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// WithFaults returns a copy of the script carrying the given fault list.
func (s Script) WithFaults(faults []Fault) Script {
	out := s
	out.Faults = append([]Fault(nil), faults...)
	return out
}

// ParseProtocol resolves a protocol name ("can", "minorcan",
// "majorcan_<m>", case-insensitive; "majorcan" alone uses the default m)
// to its EOF policy. It accepts exactly the names the policies' Name()
// methods produce, so scripts round-trip. The parsing itself lives in
// core.ParsePolicy, shared with the job-spec codec and the CLIs.
func ParseProtocol(name string) (node.EOFPolicy, error) {
	p, err := core.ParsePolicy(name)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return p, nil
}

// Verdict is the recorded outcome of executing a script: the probe
// violations plus the consistency counts and the bus digest that replays
// must reproduce.
type Verdict struct {
	// Violations are the probe findings, sorted lexicographically.
	Violations []string `json:"violations"`
	// IMOs, Duplicates and OrderInversions are the abcheck counts.
	IMOs            int `json:"imos"`
	Duplicates      int `json:"duplicates"`
	OrderInversions int `json:"orderInversions"`
	// Quiet reports whether the bus quiesced within budget.
	Quiet bool `json:"quiet"`
	// Slots is the total simulated slot count.
	Slots uint64 `json:"slots"`
	// Digest is the FNV-1a hash of the complete bus history (16 hex
	// digits); equal digests mean bit-for-bit identical runs.
	Digest string `json:"digest"`
}

// Artifact is a self-contained, re-executable counterexample: the shrunk
// script together with the verdict its execution produced.
type Artifact struct {
	// Campaign names the campaign that found it.
	Campaign string `json:"campaign,omitempty"`
	// Trial is the campaign trial index that found the original script.
	Trial int `json:"trial"`
	// OriginalFaults is the fault count before shrinking.
	OriginalFaults int `json:"originalFaults"`
	// Script is the shrunk, minimal script.
	Script Script `json:"script"`
	// Verdict is the recorded outcome of the shrunk script.
	Verdict Verdict `json:"verdict"`
}

// Encode renders the artifact as deterministic, indented JSON.
func (a Artifact) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// DecodeArtifact parses an artifact and validates its script.
func DecodeArtifact(data []byte) (Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return Artifact{}, fmt.Errorf("chaos: bad artifact: %w", err)
	}
	if a.Script.Version != ScriptVersion {
		return Artifact{}, fmt.Errorf("chaos: artifact version %d, want %d", a.Script.Version, ScriptVersion)
	}
	if err := a.Script.Validate(); err != nil {
		return Artifact{}, err
	}
	return a, nil
}
