// Package core implements the end-of-frame protocol variants the MajorCAN
// paper studies: standard CAN (ISO 11898), the MinorCAN modification and
// the MajorCAN_m protocol, as node.EOFPolicy implementations for the
// simulated controller: step functions over its node.Episode value.
package core

import (
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/frame"
	"repro/internal/node"
)

// Standard is the standard CAN end-of-frame behaviour: a 7-bit EOF, an
// 8-bit error delimiter and the "last bit of EOF" rule — a receiver
// detecting an error in the last EOF bit accepts the frame and sends an
// overload flag, while the transmitter rejects and retransmits in the same
// situation.
type Standard struct{}

var _ node.EOFPolicy = Standard{}

// NewStandard returns the standard CAN policy.
func NewStandard() Standard { return Standard{} }

// Name implements node.EOFPolicy.
func (Standard) Name() string { return "CAN" }

// EOFBits implements node.EOFPolicy.
func (Standard) EOFBits() int { return frame.StandardEOFBits }

// DelimiterBits implements node.EOFPolicy.
func (Standard) DelimiterBits() int { return 8 }

// Drive implements node.EOFPolicy.
func (Standard) Drive(e *node.Episode) bitstream.Level {
	return e.Drive(e.Mode == node.EpisodeFlag)
}

// Phase implements node.EOFPolicy.
func (Standard) Phase(e *node.Episode) bus.Phase {
	switch {
	case e.Mode != node.EpisodeFlag:
		return bus.PhaseEOF
	case e.Status.Kind == node.ErrOverload:
		return bus.PhaseOverloadFlag
	default:
		return bus.PhaseErrorFlag
	}
}

// Latch implements node.EOFPolicy.
func (Standard) Latch(e *node.Episode, level bitstream.Level, transmitter bool) bool {
	switch {
	case e.Mode == node.EpisodeFlag:
		if e.CountFlag() {
			return true
		}
	case level == bitstream.Recessive:
		return e.CleanEnd(frame.StandardEOFBits)
	case e.Pos < frame.StandardEOFBits || transmitter:
		// An error before the last EOF bit — or anywhere in the EOF for
		// the transmitter — invalidates the frame.
		e.Reject(e.Detected(transmitter))
	default:
		// The last-bit rule: the receiver accepts the frame and signals
		// an overload condition instead of an error.
		e.StartFlag(node.EpisodeFlag, node.EpisodeStatus{
			Verdict:   node.VerdictAccept,
			After:     node.AfterOverloadDelim,
			Signalled: true,
			Kind:      node.ErrOverload,
		})
	}
	return false
}
