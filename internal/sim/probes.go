package sim

import (
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/node"
)

// CrashAtFirstFlag is a bus.Probe that crashes a controller the first
// time its station is observed signalling an error flag, an overload flag
// or a MajorCAN extension. It injects the fail-silent faults of the
// paper's model, such as the transmitter of Fig. 1c failing after it
// scheduled the retransmission and before performing it.
type CrashAtFirstFlag struct {
	// Ctrl is the controller to crash.
	Ctrl *node.Controller
	// Station is the station index whose view is watched.
	Station int

	done bool
}

var _ bus.Probe = (*CrashAtFirstFlag)(nil)

// OnBit implements bus.Probe.
func (c *CrashAtFirstFlag) OnBit(_ uint64, _ bitstream.Level, _, _ []bitstream.Level, views []bus.ViewContext) {
	if c.done || c.Station >= len(views) {
		return
	}
	switch views[c.Station].Phase {
	case bus.PhaseErrorFlag, bus.PhaseOverloadFlag, bus.PhaseExtFlag:
		c.Ctrl.Crash()
		c.done = true
	}
}

// CrashAtSlot is a bus.Probe that crashes a controller at a fixed bit
// slot.
type CrashAtSlot struct {
	Ctrl *node.Controller
	Slot uint64

	done bool
}

var _ bus.Probe = (*CrashAtSlot)(nil)

// OnBit implements bus.Probe.
func (c *CrashAtSlot) OnBit(slot uint64, _ bitstream.Level, _, _ []bitstream.Level, _ []bus.ViewContext) {
	if !c.done && slot >= c.Slot {
		c.Ctrl.Crash()
		c.done = true
	}
}
