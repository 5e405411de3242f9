// Package node implements a bit-synchronous CAN controller: arbitration,
// the receive pipeline (destuffing, CRC, frame assembly), error detection
// and signalling, fault confinement, and automatic retransmission.
//
// The behaviour at the end of frame — exactly the part the MajorCAN paper
// modifies — is delegated to an EOFPolicy. Package core provides the three
// policies: standard CAN, MinorCAN and MajorCAN_m.
package node

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/bus"
)

// ErrorKind classifies the CAN error detection mechanisms plus the
// overload condition.
type ErrorKind uint8

const (
	// ErrBit is a bit error: a transmitter monitored a level different from
	// the one it sent.
	ErrBit ErrorKind = iota + 1
	// ErrStuff is a stuff error: six consecutive equal bits in a stuffed
	// field.
	ErrStuff
	// ErrCRC is a CRC error: the received CRC sequence does not match the
	// computed one.
	ErrCRC
	// ErrForm is a form error: a fixed-form bit field contains an illegal
	// level.
	ErrForm
	// ErrAck is an acknowledgment error: the transmitter monitored
	// recessive during the ACK slot.
	ErrAck
	// ErrOverload is not an error proper but the overload condition
	// (dominant during intermission or at the last bit of a delimiter).
	ErrOverload
)

func (k ErrorKind) String() string {
	switch k {
	case ErrBit:
		return "bit"
	case ErrStuff:
		return "stuff"
	case ErrCRC:
		return "crc"
	case ErrForm:
		return "form"
	case ErrAck:
		return "ack"
	case ErrOverload:
		return "overload"
	default:
		return fmt.Sprintf("ErrorKind(%d)", uint8(k))
	}
}

// Verdict is the outcome of a frame at one node.
type Verdict uint8

const (
	// VerdictAccept means the frame is valid at this node: a receiver
	// delivers it, a transmitter considers it successfully sent.
	VerdictAccept Verdict = iota + 1
	// VerdictReject means the frame is invalid at this node: a receiver
	// discards it, a transmitter schedules a retransmission.
	VerdictReject
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictReject:
		return "reject"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// After tells the controller what follows the end-of-frame episode.
type After uint8

const (
	// AfterNone means the frame ended cleanly: intermission follows.
	AfterNone After = iota + 1
	// AfterErrorDelim means an error delimiter must be completed first.
	AfterErrorDelim
	// AfterOverloadDelim means an overload delimiter must be completed
	// first.
	AfterOverloadDelim
)

// EpisodeStatus is the outcome of an end-of-frame episode, kept in
// Episode.Status: decided so far while the episode runs, final once
// EOFPolicy.Latch reports it done.
type EpisodeStatus struct {
	// Verdict is the node's decision about the frame.
	Verdict Verdict
	// After selects the delimiter the controller must run next.
	After After
	// DelimCredit is the number of recessive delimiter bits the episode
	// already consumed (used by MinorCAN's primary-error probe bit).
	DelimCredit int
	// Signalled reports whether the node transmitted an error or overload
	// flag during the episode (drives the fault confinement counters).
	Signalled bool
	// Kind is the error kind that triggered the signalling.
	Kind ErrorKind
	// VoteCorrected reports that the node signalled an error and the
	// protocol's acceptance sampling (MajorCAN's majority vote) still
	// accepted the frame; Votes is the number of dominant samples that
	// carried the vote.
	VoteCorrected bool
	Votes         int
}

// Episode is the state of one end-of-frame episode: the EOF field plus
// any error/overload flags, acceptance sampling and flag extensions
// mandated by the protocol variant. It starts at the first EOF bit and
// ends when the controller should run a delimiter (or go straight to
// intermission). It is a plain value inside the controller's state, so
// Snapshot, Restore and AppendKey capture it at every slot; the policy's
// Drive, Phase and Latch step it, and the methods below are the steps
// every policy shares. Outside an episode it is zero.
type Episode struct {
	// Start is the slot of the first EOF bit.
	Start uint64
	// RejectAtStart forces an error flag from the first EOF bit on: the
	// node detected a CRC error (or an ACK/form error at the very end of
	// the frame body) and must never accept the frame.
	RejectAtStart bool
	// RejectKind is the error kind behind RejectAtStart.
	RejectKind ErrorKind
	// Passive makes every flag the episode sends passive (recessive): the
	// node was error-passive at the first EOF bit, so its error signalling
	// cannot influence the rest of the bus, reproducing the Section 1
	// impairment. The verdict logic is unchanged.
	Passive bool

	// Pos is the 1-based position of the bit about to be latched,
	// relative to the first EOF bit.
	Pos int
	// Mode is the policy's step mode: EpisodeQuiet and EpisodeFlag are
	// shared, a policy numbers its own modes after EpisodeFlag.
	Mode uint8
	// FlagLeft counts down the bits of a 6-bit flag. It is nonzero
	// exactly while the episode sends one, whatever the policy calls the
	// mode: StartFlag sets it and CountFlag runs it down, and a flag's
	// bits before the last only count, at either bus level.
	FlagLeft int
	// ModeEnd is the position of the last bit of a policy mode that runs
	// to a fixed position, latching the bits before it only by counting
	// (MajorCAN's sampling, extended flag and reject wait); 0 in every
	// other mode. The policy sets it when it enters such a mode.
	ModeEnd int
	// VoteFrom is the first position whose dominant samples the current
	// mode counts in Votes; 0 when the mode counts none.
	VoteFrom int
	// Votes counts the dominant samples of an acceptance vote.
	Votes int
	// Status is the outcome decided so far; it is final when the
	// policy's Latch reports the episode done.
	Status EpisodeStatus
}

// The step modes every policy shares.
const (
	// EpisodeQuiet monitors the EOF field.
	EpisodeQuiet uint8 = iota
	// EpisodeFlag sends a 6-bit flag.
	EpisodeFlag
)

// Open starts the episode at its first EOF bit: a reject-at-start
// episode opens with its error flag.
func (e *Episode) Open() {
	e.Pos = 1
	if e.RejectAtStart {
		e.Reject(e.RejectKind)
	}
}

// StartFlag starts a 6-bit flag in the given mode, with st as the
// outcome decided so far.
func (e *Episode) StartFlag(mode uint8, st EpisodeStatus) {
	e.Mode = mode
	e.FlagLeft = flagBits
	e.Status = st
}

// Reject starts an error flag that rejects the frame.
func (e *Episode) Reject(kind ErrorKind) {
	e.StartFlag(EpisodeFlag, EpisodeStatus{
		Verdict:   VerdictReject,
		After:     AfterErrorDelim,
		Signalled: true,
		Kind:      kind,
	})
}

// CountFlag latches one bit of the flag and reports whether it was the
// last.
func (e *Episode) CountFlag() bool {
	e.FlagLeft--
	return e.FlagLeft <= 0
}

// Drive returns the level of a bit the policy flags (dominant, or
// recessive for a passive node) or does not flag (recessive).
func (e *Episode) Drive(flagging bool) bitstream.Level {
	if flagging && !e.Passive {
		return bitstream.Dominant
	}
	return bitstream.Recessive
}

// Detected returns the kind of an error detected in the EOF field: a bit
// error for the transmitter, a form error for a receiver.
func (e *Episode) Detected(transmitter bool) ErrorKind {
	if transmitter {
		return ErrBit
	}
	return ErrForm
}

// CleanEnd latches a recessive bit in the quiet mode and reports
// whether the episode is done: the frame is accepted at the last EOF
// bit, pending before it.
func (e *Episode) CleanEnd(eofBits int) bool {
	if e.Pos < eofBits {
		return false
	}
	e.Status = EpisodeStatus{Verdict: VerdictAccept, After: AfterNone}
	return true
}

// steadySlots returns how many slots the episode latches level only by
// counting, before the bit whose latch may change its mode: the bits of
// a flag before its last; of a mode with a fixed end (ModeEnd) before
// that end; or, under a recessive bus, of the quiet EOF field before its
// last bit (eofBits), where the frame is accepted. A dominant EOF bit is
// an error, and any other mode decides on its next bit, so both are 0.
func (e *Episode) steadySlots(level bitstream.Level, eofBits int) int {
	switch {
	case e.FlagLeft > 0:
		return e.FlagLeft - 1
	case e.ModeEnd > 0:
		return max(0, e.ModeEnd-e.Pos)
	case e.Mode == EpisodeQuiet && level == bitstream.Recessive:
		return max(0, eofBits-e.Pos)
	}
	return 0
}

// latchSteady latches n slots at level, n at most steadySlots: the flag
// countdown runs down, a voting mode under a dominant bus counts the
// window's positions from VoteFrom on, and the position advances.
func (e *Episode) latchSteady(level bitstream.Level, n int) {
	if e.FlagLeft > 0 {
		e.FlagLeft -= n
	}
	if e.VoteFrom > 0 && level == bitstream.Dominant {
		e.Votes += max(0, e.Pos+n-max(e.Pos, e.VoteFrom))
	}
	e.Pos += n
}

// EOFPolicy is a protocol variant: it fixes the frame's EOF length, the
// delimiter length and the end-of-frame decision logic, as step
// functions over the controller's Episode. Implementations:
// core.Standard, core.MinorCAN, core.MajorCAN.
//
// Error-passive nodes send passive (recessive) flags in the end-of-frame
// region too (Episode.Passive), reproducing the Section 1 impairment; the
// paper's protocols assume that state is avoided, which
// Options.WarningSwitchOff enforces.
type EOFPolicy interface {
	// Name identifies the variant ("CAN", "MinorCAN", "MajorCAN_5", ...).
	Name() string
	// EOFBits is the length of the end-of-frame field (7 in standard CAN,
	// 2m in MajorCAN_m).
	EOFBits() int
	// DelimiterBits is the total length of the error and overload
	// delimiters including the first recessive bit (8 in standard CAN,
	// 2m+1 in MajorCAN_m).
	DelimiterBits() int
	// Drive returns the level to put on the bus for the bit about to be
	// latched.
	Drive(e *Episode) bitstream.Level
	// Phase returns the protocol phase of the bit about to be latched.
	Phase(e *Episode) bus.Phase
	// Latch processes the node's sample of that bit and reports whether
	// the episode is done; the outcome is then e.Status. Otherwise the
	// caller advances e.Pos. transmitter reports whether the node
	// transmitted the frame.
	Latch(e *Episode, level bitstream.Level, transmitter bool) (done bool)
}
