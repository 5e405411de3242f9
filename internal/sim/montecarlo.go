package sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/abcheck"
	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/obs"
)

// MCConfig configures a Monte Carlo consistency run: a stream of frames is
// broadcast under the spatial random error model and every frame's fate at
// every receiver is recorded.
type MCConfig struct {
	// Policy is the protocol variant under test.
	Policy node.EOFPolicy
	// Nodes is the number of stations.
	Nodes int
	// Frames is the number of application frames to broadcast.
	Frames int
	// BerStar is the per-node per-bit view-flip probability (the paper's
	// ber* = ber/N).
	BerStar float64
	// Seed makes the run reproducible.
	Seed int64
	// PayloadBytes sets the frame payload size (default 8, giving frames
	// close to the paper's tau_data = 110 bits).
	PayloadBytes int
	// RotateOrigins sends frame i from station i mod Nodes instead of
	// always from station 0.
	RotateOrigins bool
	// SlotsPerFrame bounds the simulation time spent on one frame
	// including retransmissions (default 4000).
	SlotsPerFrame int
	// WarningSwitchOff enables the paper's switch-off policy.
	WarningSwitchOff bool
	// EOFOnly restricts disturbances to the end-of-frame region (EOF bits,
	// flags, sampling windows). All the paper's inconsistency scenarios
	// live there, so confining errors to it makes the rare patterns
	// observable with feasible sample sizes while leaving the protocol
	// logic untouched. It carries no likelihood weight: the measured
	// rates are per gated frame, conditioned on a clean frame outside the
	// region, not per frame at BerStar.
	EOFOnly bool
	// ResetCounters clears every node's error counters between frames so
	// that fault confinement does not disconnect stations during long
	// heavy-injection measurement runs. It matches the paper's assumption
	// that nodes never leave the error-active state within the interval of
	// reference.
	ResetCounters bool
	// GlobalModel replaces the spatial per-node error model with the
	// whole-bus model in which an error corrupts every station's view of
	// the same bit simultaneously (the ablation of the paper's ber*
	// assumption). BerStar is then the per-bit whole-bus error rate.
	GlobalModel bool
	// Disturber, if non-nil, replaces the built-in random error model
	// (BerStar and GlobalModel are then ignored). Parallel sweeps use it to
	// hand each worker a fork of one shared errmodel.Random. BitFlips is
	// reported when the disturber implements errmodel.FlipCounter.
	Disturber bus.Disturber
	// Events, if non-nil, receives the run's protocol event stream,
	// including the harness-level IMO classification events. Emission goes
	// through an internal ring buffer drained between frames, so the sink
	// is called from the run's goroutine only.
	Events obs.Sink
	// Metrics, if non-nil, aggregates the run into a metrics registry
	// (counters from the event stream plus per-frame retransmission and
	// settling-latency histograms). Parallel sweeps pass a fork per worker.
	Metrics *obs.Metrics
	// Engine selects the bit-slot execution engine (an execution knob,
	// never part of a sweep spec; default EngineAuto).
	Engine EngineChoice
}

// MCResult aggregates a Monte Carlo run.
type MCResult struct {
	Config MCConfig
	// Slots is the total number of simulated bit slots.
	Slots uint64
	// BitFlips is the number of injected view flips.
	BitFlips uint64
	// FramesSent is the number of frames actually broadcast (equals
	// Config.Frames unless origins died).
	FramesSent int
	// IMOs counts frames that ended as inconsistent message omissions
	// among correct receivers.
	IMOs int
	// Duplicates counts (frame, receiver) double receptions.
	Duplicates int
	// LostEverywhere counts frames no correct receiver delivered.
	LostEverywhere int
	// Incomplete counts frames whose transmitter was still retrying when
	// the per-frame slot budget expired.
	Incomplete int
	// Report is the Atomic Broadcast check over the whole run.
	Report *abcheck.Report
}

// IMORate returns the fraction of sent frames that ended in an IMO.
func (r *MCResult) IMORate() float64 {
	if r.FramesSent == 0 {
		return 0
	}
	return float64(r.IMOs) / float64(r.FramesSent)
}

// DuplicateRate returns double receptions per sent frame.
func (r *MCResult) DuplicateRate() float64 {
	if r.FramesSent == 0 {
		return 0
	}
	return float64(r.Duplicates) / float64(r.FramesSent)
}

// Payload stamps origin and sequence into a frame payload so that
// deliveries can be attributed to messages (the key PayloadKey recovers).
// Harnesses across the repo — Monte Carlo, workloads, chaos campaigns —
// share this stamping so their traces feed abcheck uniformly.
func Payload(origin int, seq uint32, size int) []byte {
	if size < 5 {
		size = 5
	}
	data := make([]byte, size)
	data[0] = byte(origin)
	binary.BigEndian.PutUint32(data[1:5], seq)
	// Fill the rest with a pattern derived from the sequence so frames are
	// not all-zero (all-zero maximises stuffing, a legal but atypical
	// worst case).
	for i := 5; i < size; i++ {
		data[i] = byte(seq>>uint(8*(i%4))) ^ 0x5A
	}
	return data
}

// PayloadKey recovers the message key stamped by Payload, or ok=false for
// frames that do not carry one.
func PayloadKey(f *frame.Frame) (abcheck.MsgKey, bool) {
	if len(f.Data) < 5 {
		return abcheck.MsgKey{}, false
	}
	return abcheck.MsgKey{
		Origin: int(f.Data[0]),
		Seq:    binary.BigEndian.Uint32(f.Data[1:5]),
	}, true
}

// maxTraceReserve caps the frames' worth of abcheck trace MonteCarlo
// reserves before the run.
const maxTraceReserve = 1 << 16

// MonteCarlo runs the experiment.
func MonteCarlo(cfg MCConfig) (*MCResult, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("sim: Monte Carlo needs >= 3 nodes, got %d", cfg.Nodes)
	}
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("sim: Frames must be positive")
	}
	payload := cfg.PayloadBytes
	if payload == 0 {
		payload = 8
	}
	slotsPerFrame := cfg.SlotsPerFrame
	if slotsPerFrame == 0 {
		slotsPerFrame = 4000
	}

	// Telemetry: controllers and the bus emit into a ring buffer drained
	// between frames, so downstream sinks (files, registries) are called
	// from this goroutine only and never sit on the per-bit hot path.
	var (
		ring *obs.Ring
		tel  obs.Sink
	)
	clusterOpts := ClusterOptions{
		Nodes:            cfg.Nodes,
		Policy:           cfg.Policy,
		WarningSwitchOff: cfg.WarningSwitchOff,
		Engine:           cfg.Engine,
	}
	if cfg.Events != nil || cfg.Metrics != nil {
		ring = obs.NewRing(1 << 12)
		tel = obs.Multi(cfg.Events, cfg.Metrics)
		clusterOpts.Events = ring
	}
	cluster, err := NewCluster(clusterOpts)
	if err != nil {
		return nil, err
	}
	// drain forwards buffered events to the sinks and returns how many
	// retransmissions the batch contained.
	drain := func() uint64 {
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
	var inner bus.Disturber
	flips := func() uint64 { return 0 }
	switch {
	case cfg.Disturber != nil:
		inner = cfg.Disturber
		if fc, ok := cfg.Disturber.(errmodel.FlipCounter); ok {
			flips = fc.Flips
		}
	case cfg.GlobalModel:
		g := errmodel.NewGlobalRandom(cfg.BerStar, cfg.Seed)
		inner, flips = g, g.Flips
	default:
		r := errmodel.NewRandom(cfg.BerStar, cfg.Seed)
		inner, flips = r, r.Flips
	}
	if cfg.EOFOnly {
		cluster.Net.AddDisturber(errmodel.EOFOnly{Inner: inner})
	} else {
		cluster.Net.AddDisturber(inner)
	}

	res := &MCResult{Config: cfg}
	tr := abcheck.Trace{Nodes: cfg.Nodes, Faulty: make(map[int]bool)}
	// The trace grows to one broadcast per frame and (at most) one
	// delivery per receiver per frame; reserving that up front keeps the
	// append loops below from regrowing through the whole run. The
	// reservation is capped so a long run allocates as it goes instead of
	// all at once.
	reserve := min(cfg.Frames, maxTraceReserve)
	tr.Broadcasts = make([]abcheck.Broadcast, 0, reserve)
	tr.Deliveries = make([]abcheck.Delivery, 0, reserve*(cfg.Nodes-1))

	// Per-frame scratch, reused across the trial loop.
	before := make([]int, cfg.Nodes)

	for i := 0; i < cfg.Frames; i++ {
		if cfg.ResetCounters {
			for _, n := range cluster.Nodes {
				if !n.Crashed() && n.Mode() != node.BusOff && n.Mode() != node.SwitchedOff {
					n.SetErrorCounters(0, 0)
				}
			}
		}
		origin := 0
		if cfg.RotateOrigins {
			origin = i % cfg.Nodes
		}
		ctrl := cluster.Nodes[origin]
		if ctrl.Mode() != node.ErrorActive && ctrl.Mode() != node.ErrorPassive {
			continue // origin disconnected; skip this frame
		}
		key := abcheck.MsgKey{Origin: origin, Seq: uint32(i + 1)}
		f := &frame.Frame{
			ID:   uint32(0x200 | origin),
			Data: Payload(origin, key.Seq, payload),
		}
		if err := ctrl.Enqueue(f); err != nil {
			return nil, err
		}
		broadcastSlot := cluster.Net.Slot()
		tr.Broadcasts = append(tr.Broadcasts, abcheck.Broadcast{Key: key, Slot: broadcastSlot})
		res.FramesSent++

		// Track deliveries of this frame by counting cluster deliveries.
		for n := 0; n < cfg.Nodes; n++ {
			before[n] = len(cluster.Deliveries[n])
		}
		if !cluster.RunUntilQuiet(slotsPerFrame) {
			res.Incomplete++
		}
		frameRetrans := drain()
		if cfg.Metrics != nil {
			cfg.Metrics.AddFramesSent(1)
			cfg.Metrics.ObserveFrameRetransmits(frameRetrans)
			cfg.Metrics.ObserveSettleLatency(cluster.Net.Slot() - broadcastSlot)
		}

		// Classify the frame's fate per receiver.
		got, missing := 0, 0
		for n := 0; n < cfg.Nodes; n++ {
			if n == origin {
				continue
			}
			mode := cluster.Nodes[n].Mode()
			correct := mode == node.ErrorActive || mode == node.ErrorPassive
			count := 0
			for _, d := range cluster.Deliveries[n][before[n]:] {
				if k, ok := PayloadKey(d.Frame); ok && k == key {
					count++
					tr.Deliveries = append(tr.Deliveries, abcheck.Delivery{Node: n, Key: k, Slot: d.Slot})
				}
			}
			if !correct {
				continue
			}
			switch {
			case count == 0:
				missing++
			case count >= 1:
				got++
				if count > 1 {
					res.Duplicates++
				}
			}
		}
		switch {
		case got > 0 && missing > 0:
			res.IMOs++
			if tel != nil {
				tel.Emit(obs.Event{
					Slot:    broadcastSlot,
					Kind:    obs.KindIMO,
					Station: -1,
					Aux:     key.Seq,
				})
			}
		case got == 0 && missing > 0:
			res.LostEverywhere++
		}
	}
	drain()

	for n := 0; n < cfg.Nodes; n++ {
		mode := cluster.Nodes[n].Mode()
		if mode == node.BusOff || mode == node.SwitchedOff {
			tr.Faulty[n] = true
		}
	}
	res.Slots = cluster.Net.Slot()
	res.BitFlips = flips()
	res.Report = abcheck.Check(tr)
	if cfg.Metrics != nil {
		cfg.Metrics.AddBits(res.Slots)
	}
	return res, nil
}
