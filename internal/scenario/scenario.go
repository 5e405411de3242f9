// Package scenario reproduces the error scenarios of the MajorCAN paper's
// figures as deterministic simulations: the classic last-bit scenarios of
// Rufino et al. (Fig. 1), MinorCAN's behaviour on them (Fig. 2), the
// paper's new inconsistency scenarios (Fig. 3), the per-bit behaviour of a
// MajorCAN_5 node (Fig. 4) and MajorCAN's consistency under five errors
// (Fig. 5).
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verify"
)

// TestFrame returns the frame used by all figure scenarios.
func TestFrame() *frame.Frame {
	return &frame.Frame{ID: 0x100, Data: []byte{0xA5, 0x5A}}
}

// Config describes one scripted scenario. Station 0 is always the
// transmitter.
type Config struct {
	// Name labels the scenario ("Fig. 1b", ...).
	Name string
	// Policy is the protocol variant under test.
	Policy node.EOFPolicy
	// Nodes is the total number of stations (transmitter included).
	Nodes int
	// X and Y are the receiver sets of the paper's figures (station
	// indices).
	X, Y []int
	// Script holds the scripted disturbances (nil for none); the figures
	// fill it from verify.Pattern flips, the vocabulary the exhaustive
	// verifier enumerates.
	Script *errmodel.Script
	// CrashTx crashes the transmitter at its first flag (the "failure
	// before retransmission" of Fig. 1c).
	CrashTx bool
	// MaxSlots bounds the simulation (default 4000).
	MaxSlots int
}

// Outcome is the result of one scenario run.
type Outcome struct {
	Name   string
	Policy string
	// Frame is the frame under test.
	Frame *frame.Frame
	// DeliveredCount[i] is how many copies station i delivered.
	DeliveredCount []int
	// TxSuccess reports whether the transmitter considered the frame
	// successfully sent at least once.
	TxSuccess bool
	// Retransmitted reports whether a second transmission attempt happened.
	Retransmitted bool
	// TxCrashed reports whether the transmitter was crashed by the script.
	TxCrashed bool
	// Fate is the frame's fate as the exhaustive verifier classifies it:
	// verify.Omission is the paper's inconsistent message omission
	// (Agreement violated), verify.Duplicate a double reception
	// (At-most-once violated).
	Fate verify.Outcome
	// Quiet reports that the bus reached quiescence within the slot budget.
	Quiet bool
	// Recorder holds the full bit-level history for rendering.
	Recorder *trace.Recorder
	// Cluster gives access to the simulated nodes.
	Cluster *sim.Cluster
}

// ExactlyOnce reports a consistent outcome in which every receiver
// delivered exactly one copy.
func (o *Outcome) ExactlyOnce() bool {
	if o.Fate != verify.Consistent {
		return false
	}
	for _, n := range o.DeliveredCount[1:] {
		if n != 1 {
			return false
		}
	}
	return true
}

// Run executes a scenario.
func Run(cfg Config) (*Outcome, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("scenario %s: need at least 2 nodes", cfg.Name)
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = 4000
	}
	names := make([]string, cfg.Nodes)
	names[0] = "T"
	for _, x := range cfg.X {
		names[x] = fmt.Sprintf("X%d", x)
	}
	for _, y := range cfg.Y {
		names[y] = fmt.Sprintf("Y%d", y)
	}
	rec := trace.NewRecorder(names...)
	crash := -1
	if cfg.CrashTx {
		crash = 0
	}
	f := TestFrame()
	cluster, quiet, deliveries, err := sim.RunFrame(cfg.Policy, cfg.Nodes, f, cfg.Script, crash, []bus.Probe{rec}, maxSlots)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", cfg.Name, err)
	}
	out := &Outcome{
		Name:           cfg.Name,
		Policy:         cfg.Policy.Name(),
		Frame:          f,
		DeliveredCount: deliveries,
		TxSuccess:      cluster.Nodes[0].TxSuccesses() > 0,
		TxCrashed:      cluster.Nodes[0].Crashed(),
		Fate:           verify.Classify(cluster, deliveries, quiet),
		Quiet:          quiet,
		Recorder:       rec,
		Cluster:        cluster,
	}
	// A retransmission happened if any station observed more than one SOF.
	for _, r := range rec.Records() {
		for _, v := range r.Views {
			if v.Attempts > 1 {
				out.Retransmitted = true
			}
		}
	}
	return out, nil
}

// Summary renders a one-paragraph human-readable outcome.
func (o *Outcome) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %s: ", o.Name, o.Policy)
	fmt.Fprintf(&b, "deliveries per station %v", o.DeliveredCount)
	if o.TxCrashed {
		b.WriteString(", transmitter crashed")
	} else if o.TxSuccess {
		b.WriteString(", transmitter succeeded")
	} else {
		b.WriteString(", transmitter still retrying")
	}
	if o.Retransmitted {
		b.WriteString(", retransmission occurred")
	}
	switch {
	case o.Fate == verify.Omission:
		b.WriteString(" => INCONSISTENT MESSAGE OMISSION (Agreement violated)")
	case o.Fate == verify.Duplicate:
		b.WriteString(" => double reception (At-most-once violated)")
	case o.ExactlyOnce():
		b.WriteString(" => consistent, exactly-once everywhere")
	default:
		b.WriteString(" => consistent omission (nobody delivered)")
	}
	return b.String()
}

// Timeline renders every station's bits around the transmitter's first
// end of frame, from 8 slots before it to 40 after, in the style of the
// paper's figures. It is empty if the transmitter never reached one.
func (o *Outcome) Timeline() string {
	first, last, ok := o.Recorder.EOFWindow(0, 1)
	if !ok {
		return ""
	}
	from := uint64(0)
	if first > 8 {
		from = first - 8
	}
	return o.Recorder.Render(from, last+40)
}
