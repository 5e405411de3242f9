// Package bus simulates the CAN physical medium: a wired-AND bus advancing
// in synchronous bit slots, where every attached station drives a level and
// then samples the resulting bus value through its own, individually
// disturbable view.
//
// The per-station view is the heart of the paper's error model: a bit error
// occurring "somewhere in the network" affects each node's reading of the
// bus independently (Charzinski's spatial distribution, ber* = ber/N).
package bus

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/frame"
	"repro/internal/obs"
)

// Phase describes what a station is doing during a bit slot, for
// disturbance scripting and trace rendering.
type Phase uint8

const (
	// PhaseIdle means the bus is idle from this station's point of view.
	PhaseIdle Phase = iota + 1
	// PhaseFrame covers SOF through the ACK delimiter.
	PhaseFrame
	// PhaseEOF covers the end-of-frame field.
	PhaseEOF
	// PhaseErrorFlag is the transmission of an (active) error flag.
	PhaseErrorFlag
	// PhasePassiveErrorFlag is the transmission of a passive error flag.
	PhasePassiveErrorFlag
	// PhaseErrorDelim is the error delimiter (recessive).
	PhaseErrorDelim
	// PhaseOverloadFlag is the transmission of an overload flag.
	PhaseOverloadFlag
	// PhaseOverloadDelim is the overload delimiter (recessive).
	PhaseOverloadDelim
	// PhaseSampling is MajorCAN's acceptance-sampling window.
	PhaseSampling
	// PhaseExtFlag is MajorCAN's extended (acceptance) error flag.
	PhaseExtFlag
	// PhaseIntermission is the 3-bit interframe space.
	PhaseIntermission
	// PhaseSuspend is the suspend-transmission period of an error-passive
	// transmitter.
	PhaseSuspend
	// PhaseOff means the station is disconnected (bus-off, switched off, or
	// crashed).
	PhaseOff
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseFrame:
		return "frame"
	case PhaseEOF:
		return "eof"
	case PhaseErrorFlag:
		return "error-flag"
	case PhasePassiveErrorFlag:
		return "passive-error-flag"
	case PhaseErrorDelim:
		return "error-delim"
	case PhaseOverloadFlag:
		return "overload-flag"
	case PhaseOverloadDelim:
		return "overload-delim"
	case PhaseSampling:
		return "sampling"
	case PhaseExtFlag:
		return "ext-flag"
	case PhaseIntermission:
		return "intermission"
	case PhaseSuspend:
		return "suspend"
	case PhaseOff:
		return "off"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// ViewContext describes a station's position within the protocol at the
// moment it samples a bit. Disturbance scripts match on it to express
// conditions such as "the last but one bit of the EOF of the nodes
// belonging to X" directly in the paper's terms.
type ViewContext struct {
	// Phase is the station's current protocol phase.
	Phase Phase
	// Field is the frame field of the bit being sampled (valid during
	// PhaseFrame and PhaseEOF).
	Field frame.Field
	// Index is the zero-based index within Field.
	Index int
	// EOFRel is the 1-based position of the sampled bit relative to the
	// first EOF bit of the current frame as this station counts it, or 0
	// when the station is not in the end-of-frame region. The paper numbers
	// all MajorCAN deadlines ((m+7)th bit, (3m+5)th bit, ...) in exactly
	// this coordinate.
	EOFRel int
	// Transmitter reports whether the station is (still) the transmitter
	// of the current frame.
	Transmitter bool
	// Attempts counts the frame transmission attempts (SOFs) this station
	// has observed, including the current one. Scripts use it to target
	// "the first transmission" vs. a retransmission.
	Attempts int
}

// Station is a device attached to the bus. The network calls Drive exactly
// once per bit slot on every station, computes the wired-AND bus value,
// and then calls Latch exactly once with the station's (possibly
// disturbed) sample of that value.
type Station interface {
	// Drive returns the level the station puts on the bus this bit slot.
	Drive() bitstream.Level
	// Latch delivers the station's sample of the bus for this bit slot and
	// advances the station's state machine.
	Latch(level bitstream.Level)
	// View describes the station's position for the bit it is about to
	// sample, used by disturbance models and trace probes.
	View() ViewContext
}

// Disturber decides whether a station's view of the bus is inverted during
// a given bit slot. Implementations live in package errmodel.
type Disturber interface {
	// Disturb reports whether station's sample in this slot is flipped.
	Disturb(slot uint64, station int, view ViewContext) bool
}

// OutputFault overrides the level a station actually puts on the wire,
// after the controller decided what to drive. It models transceiver-level
// faults the controller cannot see from the inside: a stuck-at-dominant
// output (babbling idiot jamming the bus) or an output forced recessive
// (intermittent node, broken driver stage). The controller still believes
// it drove its own level, so its bit-error detection reacts exactly like a
// real controller behind a faulty transceiver.
type OutputFault interface {
	// Apply returns the level station really drives in this slot, given the
	// level its controller requested.
	Apply(slot uint64, station int, level bitstream.Level) bitstream.Level
}

// SkewFault makes a station sample one bit slot late: when Skew fires, the
// station latches the previous slot's bus level instead of the current one
// (a transient clock glitch displacing the sample point by a full bit
// time). Disturbers still apply on top of the skewed sample.
type SkewFault interface {
	// Skew reports whether station's sample in this slot slips to the
	// previous slot's bus level.
	Skew(slot uint64, station int) bool
}

// Probe observes every bit slot, e.g. to record traces.
type Probe interface {
	// OnBit is called once per slot after all stations latched. views and
	// drives and samples are indexed by station and must not be retained.
	OnBit(slot uint64, busLevel bitstream.Level, drives, samples []bitstream.Level, views []ViewContext)
}

// Engine is a pluggable bit-slot executor for Run and RunUntil. An
// installed engine may batch-advance the simulation (skipping per-slot
// dispatch during provably quiescent stretches) but must produce exactly
// the state, event stream and RNG consumption the reference Step loop
// would: trace equivalence is the engine's contract, checked by the
// differential oracle in internal/bus/fastpath.
type Engine interface {
	// Advance simulates between 1 and budget bit slots (budget >= 1) and
	// returns how many it consumed.
	Advance(budget int) int
}

// Network couples stations through the wired-AND medium.
type Network struct {
	stations     []Station
	disturbers   []Disturber
	outputFaults []OutputFault
	skews        []SkewFault
	probes       []Probe
	emitter      obs.Sink
	engine       Engine
	version      uint64
	slot         uint64
	prevLevel    bitstream.Level
	busy         uint64 // dominant slots simulated; not part of State

	// scratch buffers reused across steps
	drives  []bitstream.Level
	samples []bitstream.Level
	views   []ViewContext
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{prevLevel: bitstream.Recessive, version: 1}
}

// Attach adds a station to the bus and returns its station index.
func (n *Network) Attach(s Station) int {
	n.stations = append(n.stations, s)
	n.drives = append(n.drives, bitstream.Recessive)
	n.samples = append(n.samples, bitstream.Recessive)
	n.views = append(n.views, ViewContext{})
	n.version++
	return len(n.stations) - 1
}

// AddDisturber registers a disturbance model. Multiple disturbers compose:
// a bit is flipped when an odd number of them fire (each flip inverts).
func (n *Network) AddDisturber(d Disturber) {
	n.disturbers = append(n.disturbers, d)
	n.version++
}

// AddOutputFault registers a transceiver-level output override. Faults
// compose in registration order: each sees the level produced by the
// previous one.
func (n *Network) AddOutputFault(f OutputFault) {
	n.outputFaults = append(n.outputFaults, f)
	n.version++
}

// AddSkew registers a sample-point skew fault.
func (n *Network) AddSkew(f SkewFault) {
	n.skews = append(n.skews, f)
	n.version++
}

// AddProbe registers a per-bit observer.
func (n *Network) AddProbe(p Probe) {
	n.probes = append(n.probes, p)
	n.version++
}

// SetEmitter attaches a telemetry sink for bus-level events (frame
// starts). A nil sink turns emission off.
func (n *Network) SetEmitter(sink obs.Sink) {
	n.emitter = sink
	n.version++
}

// SetEngine installs (or, with nil, removes) a batch executor consulted
// by Run and RunUntil. Step always runs the reference loop, so per-slot
// callers keep exact single-slot semantics regardless of the engine.
//
// With an engine installed, RunUntil evaluates cond at batch boundaries
// only. This is sound for conditions on protocol state — quiescence, a
// verdict, a mode change — because a conforming engine never batches
// across a slot that changes a station's state (see
// internal/bus/fastpath: fast-forward windows always contain an
// in-frame transmitter, and steady windows end one slot before any
// station's next state transition). A condition on a position inside a
// stretch (an EOF bit, a counter value) may be batched across; callers
// needing one step with Step.
func (n *Network) SetEngine(e Engine) {
	n.engine = e
}

// Version counts configuration changes (attached stations, registered
// disturbers/faults/probes, emitter swaps). Engines compare it against
// the version they planned for and re-plan on mismatch, so disturbers
// added after construction are never missed.
func (n *Network) Version() uint64 { return n.version }

// Stations returns the number of attached stations.
func (n *Network) Stations() int { return len(n.stations) }

// StationAt returns the station attached at index i.
func (n *Network) StationAt(i int) Station { return n.stations[i] }

// DisturberList exposes the registered disturbers in registration order
// for engine planning. The returned slice is the network's own: callers
// must not mutate it.
func (n *Network) DisturberList() []Disturber { return n.disturbers }

// NumOutputFaults returns how many output faults are registered.
func (n *Network) NumOutputFaults() int { return len(n.outputFaults) }

// NumSkews returns how many skew faults are registered.
func (n *Network) NumSkews() int { return len(n.skews) }

// NumProbes returns how many probes are registered.
func (n *Network) NumProbes() int { return len(n.probes) }

// Emitter returns the bus-level telemetry sink (nil when off).
func (n *Network) Emitter() obs.Sink { return n.emitter }

// PrevLevel returns the bus level of the previous slot (Recessive before
// the first), the edge-detection state frame-start emission keys on.
func (n *Network) PrevLevel() bitstream.Level { return n.prevLevel }

// CommitSlot records the completion of one bit slot executed outside
// Step: it advances the slot counter, the previous-level latch and the
// dominant-slot count. Part of the engine seam; callers other than an
// installed Engine must not use it.
func (n *Network) CommitSlot(level bitstream.Level) {
	n.prevLevel = level
	n.slot++
	if level == bitstream.Dominant {
		n.busy++
	}
}

// SkipSlots records slots (>= 1) bit slots executed in a batch, dominant
// of them with a dominant bus level and the last one at level last, as
// that many CommitSlot calls would. Part of the engine seam, like
// CommitSlot.
func (n *Network) SkipSlots(slots, dominant uint64, last bitstream.Level) {
	n.prevLevel = last
	n.slot += slots
	n.busy += dominant
}

// Slot returns the index of the next bit slot to be simulated.
func (n *Network) Slot() uint64 { return n.slot }

// BusySlots returns the number of slots simulated so far whose bus level
// was dominant. It is a run statistic, not simulation state: Snapshot
// does not capture it and Restore does not rewind it.
func (n *Network) BusySlots() uint64 { return n.busy }

// State is the part of a Network a snapshot restores: the slot clock and
// the edge-detection latch. Stations restore their own state.
type State struct {
	slot      uint64
	prevLevel bitstream.Level
}

// Slot returns the index of the next bit slot at the snapshot.
func (s State) Slot() uint64 { return s.slot }

// AppendKey appends the snapshot to a state key (see
// bitstream.AppendKeyBool).
func (s State) AppendKey(b []byte) []byte {
	b = bitstream.AppendKeyUint(b, s.slot)
	return append(b, byte(s.prevLevel))
}

// Snapshot captures the network's clock.
func (n *Network) Snapshot() State {
	return State{slot: n.slot, prevLevel: n.prevLevel}
}

// Restore returns the network's clock to s and unregisters every
// disturber, output fault, skew and probe: a model's own state cannot be
// rewound, so each run after a restore registers fresh ones. Restore
// counts as a configuration change (Version), so an installed engine
// re-plans before the next slot.
func (n *Network) Restore(s State) {
	n.slot, n.prevLevel = s.slot, s.prevLevel
	n.disturbers = unregister(n.disturbers)
	n.outputFaults = unregister(n.outputFaults)
	n.skews = unregister(n.skews)
	n.probes = unregister(n.probes)
	n.version++
}

// unregister empties a registration list, keeping its storage but no
// reference to the models.
func unregister[T any](list []T) []T {
	clear(list)
	return list[:0]
}

// Step simulates one bit slot and returns the (undisturbed) bus level.
func (n *Network) Step() bitstream.Level {
	for i, s := range n.stations {
		n.views[i] = s.View()
		n.drives[i] = s.Drive()
		for _, f := range n.outputFaults {
			n.drives[i] = f.Apply(n.slot, i, n.drives[i])
		}
	}
	level := bitstream.Wire(n.drives...)
	if n.emitter != nil && level == bitstream.Dominant && n.prevLevel == bitstream.Recessive {
		// A dominant edge after a recessive bit: if any station is driving
		// its SOF this slot, a frame is starting on the wire.
		n.emitFrameStart()
	}
	for i, s := range n.stations {
		sample := level
		for _, sk := range n.skews {
			if sk.Skew(n.slot, i) {
				sample = n.prevLevel
				break
			}
		}
		for _, d := range n.disturbers {
			if d.Disturb(n.slot, i, n.views[i]) {
				sample = sample.Invert()
			}
		}
		n.samples[i] = sample
		s.Latch(sample)
	}
	for _, p := range n.probes {
		p.OnBit(n.slot, level, n.drives, n.samples, n.views)
	}
	n.prevLevel = level
	n.slot++
	if level == bitstream.Dominant {
		n.busy++
	}
	return level
}

// emitFrameStart reports a start-of-frame bit on the wire: Station is the
// lowest-indexed transmitting contender, Aux the number of simultaneous
// contenders (arbitration follows when it exceeds one).
func (n *Network) emitFrameStart() {
	if n.emitter == nil {
		return
	}
	first, contenders, attempts := -1, 0, 0
	for i, v := range n.views {
		if v.Transmitter && v.Phase == PhaseFrame && v.Field == frame.FieldSOF {
			if first < 0 {
				first, attempts = i, v.Attempts
			}
			contenders++
		}
	}
	if first < 0 {
		return
	}
	n.emitter.Emit(obs.Event{
		Slot:    n.slot,
		Kind:    obs.KindFrameStart,
		Station: int16(first),
		Flags:   obs.FlagTransmitter,
		Attempt: uint16(attempts),
		Aux:     uint32(contenders),
	})
}

// Run simulates the given number of bit slots, batching through the
// installed engine when one is set.
func (n *Network) Run(slots int) {
	if n.engine == nil {
		for i := 0; i < slots; i++ {
			n.Step()
		}
		return
	}
	for done := 0; done < slots; {
		done += n.engine.Advance(slots - done)
	}
}

// RunUntil steps the network until cond returns true or the slot budget is
// exhausted; it reports whether the condition was met. With an engine
// installed, cond is evaluated at batch boundaries (see SetEngine).
func (n *Network) RunUntil(cond func() bool, maxSlots int) bool {
	if n.engine == nil {
		for i := 0; i < maxSlots; i++ {
			if cond() {
				return true
			}
			n.Step()
		}
		return cond()
	}
	for done := 0; done < maxSlots; {
		if cond() {
			return true
		}
		done += n.engine.Advance(maxSlots - done)
	}
	return cond()
}
