// Package sim provides the experiment harness: clusters of simulated CAN
// controllers on a shared bus, workload generation, Monte Carlo runs and
// consistency statistics.
package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/bus/fastpath"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/obs"
)

// EngineChoice selects the bit-slot execution engine for a cluster: the
// per-slot reference loop or the fast engine (internal/bus/fastpath),
// which produces bit-identical traces. An engine choice is an execution
// knob, never part of an experiment's identity: it must not appear in
// sweep specs or content addresses, exactly like parallelism.
type EngineChoice string

const (
	// EngineAuto defers to the process-wide default (fast, unless
	// SetDefaultEngine rerouted it to the reference loop).
	EngineAuto EngineChoice = ""
	// EngineFast installs the packed fast bit-slot engine.
	EngineFast EngineChoice = "fast"
	// EngineReference runs the reference per-slot Step loop.
	EngineReference EngineChoice = "reference"
)

// referenceDefault flips the process-wide EngineAuto resolution from
// fast to reference (the differential oracle's switch).
var referenceDefault atomic.Bool

// SetDefaultEngine sets how EngineAuto resolves process-wide. EngineAuto
// restores the built-in default (fast). It rejects unknown names.
func SetDefaultEngine(c EngineChoice) error {
	switch c {
	case EngineAuto, EngineFast:
		referenceDefault.Store(false)
	case EngineReference:
		referenceDefault.Store(true)
	default:
		return fmt.Errorf("sim: unknown engine %q (want %q or %q)", c, EngineFast, EngineReference)
	}
	return nil
}

// DefaultEngine returns the engine EngineAuto currently resolves to.
func DefaultEngine() EngineChoice {
	if referenceDefault.Load() {
		return EngineReference
	}
	return EngineFast
}

// Delivery records one frame handed to a node's upper layer.
type Delivery struct {
	// Slot is the bit slot at which the frame was delivered.
	Slot uint64
	// Frame is the delivered frame.
	Frame *frame.Frame
}

// TxResult records one successful transmission at the sending node.
type TxResult struct {
	Slot  uint64
	Frame *frame.Frame
}

// ClusterOptions configures a Cluster.
type ClusterOptions struct {
	// Nodes is the number of stations (must be >= 2 for acknowledgement).
	Nodes int
	// Policy is the end-of-frame policy shared by all stations.
	Policy node.EOFPolicy
	// WarningSwitchOff enables the paper's switch-off-at-warning-limit
	// policy on every node.
	WarningSwitchOff bool
	// AutoRecover enables bus-off recovery (128 x 11 recessive bits) on
	// every node, so fault-injection schedules can exercise the
	// crash-then-restart path.
	AutoRecover bool
	// NodeHooks, if non-nil, is called for every node so callers can add
	// extra instrumentation; the returned hooks are merged with the
	// cluster's own recording hooks.
	NodeHooks func(station int) node.Hooks
	// Events, if non-nil, receives the protocol event stream: every
	// controller and the bus emit obs events into it. A nil sink costs one
	// nil check per potential event.
	Events obs.Sink
	// Engine selects the bit-slot execution engine (default EngineAuto:
	// the process-wide default, normally the fast engine).
	Engine EngineChoice
}

// Cluster is a set of CAN controllers on one simulated bus with recorded
// deliveries and transmissions.
type Cluster struct {
	Net   *bus.Network
	Nodes []*node.Controller

	// Deliveries[i] are the frames delivered at station i in order.
	Deliveries [][]Delivery
	// TxResults[i] are the successful transmissions of station i in order.
	TxResults [][]TxResult
	// Verdicts[i] are the accept/reject decisions of station i per frame
	// episode, in order.
	Verdicts [][]node.Verdict

	engine *fastpath.Engine // the installed fast engine, nil under the reference loop
}

// NewCluster builds a cluster of identical controllers.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Nodes < 2 {
		return nil, fmt.Errorf("sim: a CAN bus needs at least 2 nodes, got %d", opts.Nodes)
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	c := &Cluster{
		Net:        bus.NewNetwork(),
		Nodes:      make([]*node.Controller, opts.Nodes),
		Deliveries: make([][]Delivery, opts.Nodes),
		TxResults:  make([][]TxResult, opts.Nodes),
		Verdicts:   make([][]node.Verdict, opts.Nodes),
	}
	for i := 0; i < opts.Nodes; i++ {
		i := i
		var extra node.Hooks
		if opts.NodeHooks != nil {
			extra = opts.NodeHooks(i)
		}
		hooks := node.Hooks{
			OnDeliver: func(slot uint64, f *frame.Frame) {
				c.Deliveries[i] = append(c.Deliveries[i], Delivery{Slot: slot, Frame: f})
				if extra.OnDeliver != nil {
					extra.OnDeliver(slot, f)
				}
			},
			OnTxSuccess: func(slot uint64, f *frame.Frame) {
				c.TxResults[i] = append(c.TxResults[i], TxResult{Slot: slot, Frame: f})
				if extra.OnTxSuccess != nil {
					extra.OnTxSuccess(slot, f)
				}
			},
			OnVerdict: func(slot uint64, v node.Verdict, tx bool) {
				c.Verdicts[i] = append(c.Verdicts[i], v)
				if extra.OnVerdict != nil {
					extra.OnVerdict(slot, v, tx)
				}
			},
			OnError:      extra.OnError,
			OnModeChange: extra.OnModeChange,
		}
		ctrl := node.New(fmt.Sprintf("n%d", i), opts.Policy, node.Options{
			WarningSwitchOff: opts.WarningSwitchOff,
			AutoRecover:      opts.AutoRecover,
			Hooks:            hooks,
		})
		c.Nodes[i] = ctrl
		station := c.Net.Attach(ctrl)
		if opts.Events != nil {
			ctrl.Instrument(opts.Events, station)
		}
	}
	if opts.Events != nil {
		c.Net.SetEmitter(opts.Events)
	}
	engine := opts.Engine
	if engine == EngineAuto {
		engine = DefaultEngine()
	}
	switch engine {
	case EngineFast:
		c.engine = fastpath.Install(c.Net)
	case EngineReference:
		// The network's built-in per-slot Step loop.
	default:
		return nil, fmt.Errorf("sim: unknown engine %q (want %q or %q)", engine, EngineFast, EngineReference)
	}
	return c, nil
}

// MustCluster is NewCluster panicking on error, for tests and examples.
func MustCluster(opts ClusterOptions) *Cluster {
	c, err := NewCluster(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Quiet reports whether every (live) controller is idle with an empty
// transmit queue.
func (c *Cluster) Quiet() bool {
	for _, n := range c.Nodes {
		if n.Mode() == node.BusOff || n.Mode() == node.SwitchedOff {
			continue
		}
		if !n.Idle() {
			return false
		}
	}
	return true
}

// RunUntilQuiet steps the network until the bus is quiet (plus a few idle
// slots to flush intermission) or the slot budget is exhausted; it reports
// whether quiescence was reached.
func (c *Cluster) RunUntilQuiet(maxSlots int) bool {
	done := c.Net.RunUntil(c.Quiet, maxSlots)
	// A few extra slots so trailing idle bits appear in traces.
	c.Net.Run(4)
	return done
}

// DeliveredAt reports whether station i delivered a frame equal to f.
func (c *Cluster) DeliveredAt(i int, f *frame.Frame) bool {
	for _, d := range c.Deliveries[i] {
		if d.Frame.Equal(f) {
			return true
		}
	}
	return false
}

// DeliveryCount returns how many times station i delivered a frame equal
// to f.
func (c *Cluster) DeliveryCount(i int, f *frame.Frame) int {
	n := 0
	for _, d := range c.Deliveries[i] {
		if d.Frame.Equal(f) {
			n++
		}
	}
	return n
}
