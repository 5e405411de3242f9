package core

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/node"
)

// MajorCAN is the paper's main contribution (Section 5): a CAN
// modification that achieves Atomic Broadcast in the presence of up to m
// randomly distributed bit errors per frame.
//
// The EOF field is split into two m-bit sub-fields (2m bits total):
//
//   - A node detecting an error in the first sub-field (bit 1..m) sends a
//     regular 6-bit error flag and then samples the 2m-1 bits from position
//     m+7 through 3m+5 (positions relative to the first EOF bit), deciding
//     accept/reject by majority vote on those samples.
//   - A node detecting an error in the second sub-field (bit m+1..2m) must
//     accept the frame and notifies the acceptance with an extended error
//     flag: dominant from the bit after detection through position 3m+5.
//   - A node that must reject from the start (CRC error; its flag begins at
//     the first EOF bit) never samples and never accepts.
//   - Second errors detected during the EOF and the extended flags are not
//     signalled with additional error flags, so they cannot spoil the
//     agreement process.
//
// The error delimiter is 2m+1 recessive bits so that every frame ends with
// the same bit pattern (ACK delimiter + EOF = 2m+1 recessive bits).
type MajorCAN struct {
	m int
}

var _ node.EOFPolicy = MajorCAN{}

// DefaultM is the paper's proposed tolerance: standard CAN's CRC detects up
// to 5 randomly distributed bit errors, so MajorCAN guarantees Atomic
// Broadcast at the same level.
const DefaultM = 5

// NewMajorCAN returns the MajorCAN_m policy. m must be at least 3: the
// paper shows that with only 2 errors the new inconsistency scenario can
// happen, so tolerating m <= 2 would be pointless.
func NewMajorCAN(m int) (MajorCAN, error) {
	if m < 3 {
		return MajorCAN{}, fmt.Errorf("core: MajorCAN requires m >= 3, got %d", m)
	}
	return MajorCAN{m: m}, nil
}

// MustMajorCAN is NewMajorCAN panicking on an invalid m; intended for
// tests, examples and variable initialisation with constant m.
func MustMajorCAN(m int) MajorCAN {
	p, err := NewMajorCAN(m)
	if err != nil {
		panic(err)
	}
	return p
}

// M returns the error tolerance parameter.
func (p MajorCAN) M() int { return p.m }

// Name implements node.EOFPolicy.
func (p MajorCAN) Name() string { return fmt.Sprintf("MajorCAN_%d", p.m) }

// EOFBits implements node.EOFPolicy: the two m-bit sub-fields.
func (p MajorCAN) EOFBits() int { return 2 * p.m }

// DelimiterBits implements node.EOFPolicy: 2m+1 recessive bits.
func (p MajorCAN) DelimiterBits() int { return 2*p.m + 1 }

// EndPos returns the last bit position (relative to the first EOF bit,
// 1-based) of the extended error flags and of the sampling window: 3m+5.
func (p MajorCAN) EndPos() int { return 3*p.m + 5 }

// WindowStart returns the first sampled bit position: m+7.
func (p MajorCAN) WindowStart() int { return p.m + 7 }

// BestCaseOverhead returns the per-frame overhead in bits compared with
// standard CAN when no errors hit the EOF region: 2m-7.
func (p MajorCAN) BestCaseOverhead() int { return 2*p.m - 7 }

// WorstCaseOverhead returns the per-frame overhead in bits compared with
// standard CAN when errors hit the last m EOF bits: 4m-9 (the paper's
// Section 6 figure; 11 bits for m = 5).
func (p MajorCAN) WorstCaseOverhead() int { return 4*p.m - 9 }

// MajorCAN's own step modes. Each runs to position 3m+5, which the
// policy records as Episode.ModeEnd on entering it; sampling counts the
// dominant samples from m+7 on (Episode.VoteFrom).
const (
	majSampling   = node.EpisodeFlag + 1 + iota // monitoring through 3m+5, voting in the window
	majExtFlag                                  // sending the extended (acceptance) flag
	majRejectWait                               // rejected from the start; waiting out the episode
)

// Drive implements node.EOFPolicy.
func (MajorCAN) Drive(e *node.Episode) bitstream.Level {
	return e.Drive(e.Mode == node.EpisodeFlag || e.Mode == majExtFlag)
}

// Phase implements node.EOFPolicy.
func (MajorCAN) Phase(e *node.Episode) bus.Phase {
	switch e.Mode {
	case node.EpisodeFlag:
		return bus.PhaseErrorFlag
	case majExtFlag:
		return bus.PhaseExtFlag
	case majSampling:
		return bus.PhaseSampling
	case majRejectWait:
		// Waiting out the episode without sampling (second errors are
		// suppressed); reported as the delimiter phase.
		return bus.PhaseErrorDelim
	default:
		return bus.PhaseEOF
	}
}

// Latch implements node.EOFPolicy.
func (p MajorCAN) Latch(e *node.Episode, level bitstream.Level, transmitter bool) node.EpisodeStatus {
	switch e.Mode {
	case node.EpisodeQuiet:
		switch {
		case level == bitstream.Recessive:
			return e.CleanEnd(p.EOFBits())
		case e.Pos <= p.m:
			// First sub-field: 6-bit flag, then decide by sampling.
			e.StartFlag(node.EpisodeFlag, node.EpisodeStatus{Signalled: true, Kind: e.Detected(transmitter)})
		default:
			// Second sub-field: accept and notify with the extended flag
			// through position 3m+5.
			e.Mode, e.ModeEnd = majExtFlag, p.EndPos()
			e.Status = node.EpisodeStatus{
				Verdict:   node.VerdictAccept,
				After:     node.AfterErrorDelim,
				Signalled: true,
				Kind:      e.Detected(transmitter),
			}
		}
	case node.EpisodeFlag:
		if e.CountFlag() {
			e.ModeEnd = p.EndPos()
			if e.RejectAtStart {
				e.Mode = majRejectWait
			} else {
				e.Mode, e.VoteFrom = majSampling, p.WindowStart()
			}
		}
	case majSampling:
		if e.Pos >= p.WindowStart() && level == bitstream.Dominant {
			e.Votes++
		}
		if e.Pos >= p.EndPos() {
			st := e.Finish()
			st.After = node.AfterErrorDelim
			if e.Votes >= p.m {
				// Majority of the 2m-1 samples dominant: some node is
				// notifying acceptance.
				st.Verdict = node.VerdictAccept
				st.VoteCorrected = true
				st.Votes = e.Votes
			} else {
				st.Verdict = node.VerdictReject
			}
			return st
		}
	default: // majExtFlag, majRejectWait: second errors are not signalled
		if e.Pos >= p.EndPos() {
			return e.Finish()
		}
	}
	return node.EpisodeStatus{}
}
