package chaos

import (
	"context"
	"sort"

	"repro/internal/abcheck"
	"repro/internal/bitstream"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Telemetry is optional observability for a script execution. Any field
// may be nil/zero; a zero Telemetry runs a script without observability.
type Telemetry struct {
	// Events receives the protocol event stream, including the
	// harness-level IMO classification events.
	Events obs.Sink
	// Metrics aggregates the run into a metrics registry.
	Metrics *obs.Metrics
	// Recorder, if non-nil, is attached as a bus probe so events can be
	// correlated with the recorded per-bit trace (see trace.Correlate).
	Recorder *trace.Recorder
}

func (t Telemetry) enabled() bool { return t.Events != nil || t.Metrics != nil }

// NodeState is one station's fault-confinement state at the end of a run.
type NodeState struct {
	Mode    node.Mode
	TEC     int
	REC     int
	Crashed bool
	// EverOff reports whether the station was ever bus-off or switched
	// off during the run (it may have recovered since).
	EverOff bool
}

// Result is the outcome of executing a script.
type Result struct {
	Script Script
	// Trace is the broadcast/delivery history for the abcheck properties.
	Trace abcheck.Trace
	// Report is the full Atomic Broadcast check.
	Report *abcheck.Report
	// NodeStates capture per-station confinement state at the end.
	NodeStates []NodeState
	// Quiet reports whether the bus quiesced within the slot budget.
	Quiet bool
	// Slots is the total number of simulated slots.
	Slots uint64
	// Digest is the FNV-1a hash over the complete bus history.
	Digest uint64
	// DigestHex is Digest as 16 hex digits (the artifact form).
	DigestHex string
	// FramesSent counts frames actually broadcast.
	FramesSent int
	// Incomplete counts frames whose per-frame slot budget expired.
	Incomplete int
}

// windowFault drives one station's output to a fixed level inside a slot
// window (stuck-dominant or muted transceiver).
type windowFault struct {
	station  int
	from, to uint64
	level    bitstream.Level
}

func (w windowFault) Apply(slot uint64, station int, level bitstream.Level) bitstream.Level {
	if station == w.station && slot >= w.from && slot < w.to {
		return w.level
	}
	return level
}

// glitchFault makes stations sample one slot late at scripted slots.
type glitchFault struct {
	at map[[2]uint64]bool // {slot, station}
}

func (g glitchFault) Skew(slot uint64, station int) bool {
	return g.at[[2]uint64{slot, uint64(station)}]
}

// Run executes a script deterministically and returns its full outcome.
// Event emission goes through a ring buffer drained between frames, so
// the sinks in t never sit on the per-bit hot path and the simulated
// outcome (digest included) is identical with and without telemetry.
// ctx is checked between frames and periodically through the
// post-traffic drain, so a scheduler timeout or shutdown interrupts a
// replay promptly. A cancelled run returns ctx's error and no partial
// result; ctx never influences the simulated outcome of a run that
// completes.
func Run(ctx context.Context, s Script, t Telemetry) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	policy, err := ParseProtocol(s.Protocol)
	if err != nil {
		return nil, err
	}
	payload := s.PayloadBytes
	if payload == 0 {
		payload = 8
	}
	slotsPerFrame := s.SlotsPerFrame
	if slotsPerFrame == 0 {
		slotsPerFrame = 4000
	}

	everOff := make([]bool, s.Nodes)
	clusterOpts := sim.ClusterOptions{
		Nodes:            s.Nodes,
		Policy:           policy,
		WarningSwitchOff: s.WarningSwitchOff,
		AutoRecover:      s.AutoRecover,
		NodeHooks: func(station int) node.Hooks {
			return node.Hooks{
				OnModeChange: func(_ uint64, _, to node.Mode) {
					if to == node.BusOff || to == node.SwitchedOff {
						everOff[station] = true
					}
				},
			}
		},
	}
	var (
		ring *obs.Ring
		tel  obs.Sink
	)
	if t.enabled() {
		ring = obs.NewRing(1 << 12)
		tel = obs.Multi(t.Events, t.Metrics)
		clusterOpts.Events = ring
	}
	cluster, err := sim.NewCluster(clusterOpts)
	if err != nil {
		return nil, err
	}
	if t.Recorder != nil {
		cluster.Net.AddProbe(t.Recorder)
	}
	drainEvents := func() uint64 {
		if ring == nil {
			return 0
		}
		var retrans uint64
		ring.Drain(obs.SinkFunc(func(e obs.Event) {
			if e.Kind == obs.KindRetransmit {
				retrans++
			}
			// tel can be nil with the ring live: Multi drops typed-nil
			// sinks, so a caller passing e.g. a nil *obs.Memory as Events
			// enables the ring but leaves no sink behind it.
			if tel != nil {
				tel.Emit(e)
			}
		}))
		return retrans
	}

	// Wire the fault sources. View flips become an errmodel script;
	// windows become output faults; glitches become skews; crash and
	// bus-off events are applied by the step loop below.
	flips := errmodel.NewScript()
	glitches := glitchFault{at: make(map[[2]uint64]bool)}
	type nodeEvent struct {
		slot  uint64
		kind  FaultKind
		fault Fault
	}
	var events []nodeEvent
	var maxFaultSlot uint64
	for _, f := range s.Faults {
		end := f.Slot
		if f.Until > end {
			end = f.Until
		}
		if end > maxFaultSlot {
			maxFaultSlot = end
		}
		switch f.Kind {
		case ViewFlip:
			if f.EOFRel > 0 {
				flips.Add(errmodel.AtEOFBit([]int{f.Station}, f.EOFRel, f.Attempt))
			} else {
				flips.Add(errmodel.AtSlot([]int{f.Station}, f.Slot))
			}
		case StuckDominant:
			cluster.Net.AddOutputFault(windowFault{station: f.Station, from: f.Slot, to: f.Until, level: bitstream.Dominant})
		case Mute:
			cluster.Net.AddOutputFault(windowFault{station: f.Station, from: f.Slot, to: f.Until, level: bitstream.Recessive})
		case ClockGlitch:
			glitches.at[[2]uint64{f.Slot, uint64(f.Station)}] = true
		case Crash, BusOffKind:
			events = append(events, nodeEvent{slot: f.Slot, kind: f.Kind, fault: f})
		}
	}
	cluster.Net.AddDisturber(flips)
	if len(glitches.at) > 0 {
		cluster.Net.AddSkew(glitches)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].slot < events[j].slot })

	digest := trace.NewDigest()
	cluster.Net.AddProbe(digest)

	// step advances one slot, applying due node events first.
	applied := 0
	step := func() {
		now := cluster.Net.Slot()
		for applied < len(events) && events[applied].slot <= now {
			ev := events[applied]
			applied++
			ctrl := cluster.Nodes[ev.fault.Station]
			switch ev.kind {
			case Crash:
				ctrl.Crash()
			case BusOffKind:
				ctrl.ForceBusOff()
			}
		}
		cluster.Net.Step()
	}
	runUntilQuiet := func(budget int) bool {
		for i := 0; i < budget; i++ {
			if cluster.Quiet() {
				return true
			}
			step()
		}
		return cluster.Quiet()
	}

	res := &Result{Script: s}
	tr := abcheck.Trace{Nodes: s.Nodes, Faulty: make(map[int]bool)}

	for i := 0; i < s.Frames; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		origin := 0
		if s.RotateOrigins {
			origin = i % s.Nodes
		}
		ctrl := cluster.Nodes[origin]
		if ctrl.Mode() != node.ErrorActive && ctrl.Mode() != node.ErrorPassive {
			continue // origin disconnected; skip this frame
		}
		key := abcheck.MsgKey{Origin: origin, Seq: uint32(i + 1)}
		f := &frame.Frame{
			ID:   uint32(0x200 | origin),
			Data: sim.Payload(origin, key.Seq, payload),
		}
		if err := ctrl.Enqueue(f); err != nil {
			return nil, err
		}
		broadcastSlot := cluster.Net.Slot()
		tr.Broadcasts = append(tr.Broadcasts, abcheck.Broadcast{Key: key, Slot: broadcastSlot})
		res.FramesSent++
		if !runUntilQuiet(slotsPerFrame) {
			res.Incomplete++
		}
		frameRetrans := drainEvents()
		if t.Metrics != nil {
			t.Metrics.AddFramesSent(1)
			t.Metrics.ObserveFrameRetransmits(frameRetrans)
			t.Metrics.ObserveSettleLatency(cluster.Net.Slot() - broadcastSlot)
		}
	}

	// Drain past the last scheduled fault (windows may outlast the
	// traffic) and, with AutoRecover, give bus-off stations room to rejoin
	// (recovery needs 128 x 11 recessive bits = 1408 idle slots).
	drain := 64
	if s.AutoRecover {
		drain += 1600
	}
	for cluster.Net.Slot() < maxFaultSlot {
		// A fault window can sit arbitrarily far past the traffic; keep
		// the cancellation check off the per-slot hot path.
		if cluster.Net.Slot()%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		step()
	}
	for i := 0; i < drain; i++ {
		step()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Quiet = runUntilQuiet(slotsPerFrame)

	// A station is faulty for the AB properties if it ever left the bus or
	// was the target of a station-level fault injection; view flips and
	// clock glitches model channel noise, not station failure.
	for _, f := range s.Faults {
		switch f.Kind {
		case StuckDominant, Mute, Crash, BusOffKind:
			tr.Faulty[f.Station] = true
		}
	}
	for i, off := range everOff {
		if off {
			tr.Faulty[i] = true
		}
	}
	for n := 0; n < s.Nodes; n++ {
		for _, d := range cluster.Deliveries[n] {
			if k, ok := sim.PayloadKey(d.Frame); ok {
				tr.Deliveries = append(tr.Deliveries, abcheck.Delivery{Node: n, Key: k, Slot: d.Slot})
			}
		}
	}

	drainEvents()
	res.Trace = tr
	res.Report = abcheck.Check(tr)
	res.Slots = cluster.Net.Slot()
	if tel != nil {
		// Harness-level IMO classification per broadcast, mirroring
		// abcheck's agreement analysis: a frame delivered by some correct
		// station and never by another correct receiver.
		deliveredBy := make(map[abcheck.MsgKey]map[int]bool)
		for _, d := range tr.Deliveries {
			if tr.Faulty[d.Node] {
				continue
			}
			set := deliveredBy[d.Key]
			if set == nil {
				set = make(map[int]bool)
				deliveredBy[d.Key] = set
			}
			set[d.Node] = true
		}
		for _, b := range tr.Broadcasts {
			got, missing := 0, 0
			for n := 0; n < s.Nodes; n++ {
				if n == b.Key.Origin || tr.Faulty[n] {
					continue
				}
				if deliveredBy[b.Key][n] {
					got++
				} else {
					missing++
				}
			}
			if got > 0 && missing > 0 {
				tel.Emit(obs.Event{
					Slot:    b.Slot,
					Kind:    obs.KindIMO,
					Station: -1,
					Aux:     b.Key.Seq,
				})
			}
		}
	}
	if t.Metrics != nil {
		t.Metrics.AddBits(res.Slots)
	}
	res.Digest = digest.Sum64()
	res.DigestHex = digest.String()
	res.NodeStates = make([]NodeState, s.Nodes)
	for i, ctrl := range cluster.Nodes {
		tec, rec := ctrl.Counters()
		res.NodeStates[i] = NodeState{
			Mode:    ctrl.Mode(),
			TEC:     tec,
			REC:     rec,
			Crashed: ctrl.Crashed(),
			EverOff: everOff[i],
		}
	}
	return res, nil
}
