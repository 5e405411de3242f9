package core

import (
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/frame"
	"repro/internal/node"
)

// MinorCAN is the paper's first, minimal modification of CAN (Section 3).
// Errors detected before the last EOF bit reject the frame and errors
// detected after it leave the frame accepted, exactly as in standard CAN.
// For an error detected in the last EOF bit, both receivers and the
// transmitter apply the same criterion, implemented with the CAN MAC's
// Primary_error signal: after sending its six-bit flag, the node samples
// the following bit. A dominant level there is the tail of a flag some
// other node started later, i.e. this node was the first to detect the
// error — nobody has rejected the frame, so it accepts (and the
// transmitter does not retransmit). A recessive level means this node was
// reacting to somebody else's flag, so it rejects (and the transmitter
// retransmits).
type MinorCAN struct{}

var _ node.EOFPolicy = MinorCAN{}

// NewMinorCAN returns the MinorCAN policy.
func NewMinorCAN() MinorCAN { return MinorCAN{} }

// Name implements node.EOFPolicy.
func (MinorCAN) Name() string { return "MinorCAN" }

// EOFBits implements node.EOFPolicy.
func (MinorCAN) EOFBits() int { return frame.StandardEOFBits }

// DelimiterBits implements node.EOFPolicy.
func (MinorCAN) DelimiterBits() int { return 8 }

// MinorCAN's own step modes.
const (
	minorLastbit = node.EpisodeFlag + 1 + iota // sending a flag for a last-bit error; probe follows
	minorProbe                                 // sampling the bit after the own flag (Primary_error)
)

// Drive implements node.EOFPolicy.
func (MinorCAN) Drive(e *node.Episode) bitstream.Level {
	return e.Drive(e.Mode == node.EpisodeFlag || e.Mode == minorLastbit)
}

// Phase implements node.EOFPolicy.
func (MinorCAN) Phase(e *node.Episode) bus.Phase {
	switch e.Mode {
	case node.EpisodeFlag, minorLastbit:
		return bus.PhaseErrorFlag
	case minorProbe:
		return bus.PhaseSampling
	default:
		return bus.PhaseEOF
	}
}

// Latch implements node.EOFPolicy.
func (MinorCAN) Latch(e *node.Episode, level bitstream.Level, transmitter bool) node.EpisodeStatus {
	switch e.Mode {
	case node.EpisodeQuiet:
		switch {
		case level == bitstream.Recessive:
			return e.CleanEnd(frame.StandardEOFBits)
		case e.Pos < frame.StandardEOFBits:
			// Before the last EOF bit: reject as in standard CAN.
			e.Reject(e.Detected(transmitter))
		default:
			// Last EOF bit: flag now, decide by the Primary_error probe.
			e.StartFlag(minorLastbit, node.EpisodeStatus{})
		}
	case node.EpisodeFlag:
		if e.CountFlag() {
			return e.Finish()
		}
	case minorLastbit:
		if e.CountFlag() {
			e.Mode = minorProbe
		}
	default: // minorProbe: the bit right after the own flag
		if level == bitstream.Dominant {
			// Primary_error: some other node's flag is still on the bus, so
			// this node detected the error first — accept the frame.
			return node.EpisodeStatus{
				Done:      true,
				Verdict:   node.VerdictAccept,
				After:     node.AfterOverloadDelim,
				Signalled: true,
				Kind:      node.ErrOverload,
			}
		}
		// The error was caused by an earlier flag of another node, which
		// has already rejected the frame: reject too. The recessive probe
		// bit already counts as the first delimiter bit.
		return node.EpisodeStatus{
			Done:        true,
			Verdict:     node.VerdictReject,
			After:       node.AfterErrorDelim,
			DelimCredit: 1,
			Signalled:   true,
			Kind:        node.ErrForm,
		}
	}
	return node.EpisodeStatus{}
}
