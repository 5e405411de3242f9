package node

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/frame"
	"repro/internal/obs"
)

// flagBits is the length of active error and overload flags.
const flagBits = 6

// maxOverloads is the maximum number of successive overload frames a node
// generates (CAN specification: at most two).
const maxOverloads = 2

func arbitrationField(f frame.Field) bool {
	switch f {
	case frame.FieldID, frame.FieldSRR, frame.FieldIDE, frame.FieldExtID, frame.FieldRTR:
		return true
	default:
		return false
	}
}

// beginFrame initialises the receive pipeline (and the transmit overlay
// when tx is true) for a frame whose SOF is being latched this slot.
func (c *Controller) beginFrame(tx bool) {
	c.state = stFrame
	c.transmitter = tx
	c.lastTxSelf = tx
	c.destuff.Reset()
	c.asm.Reset()
	c.rxTail = 0
	c.overloads = 0
	c.attempts++
	if tx {
		head := c.queue.peek()
		if head == nil {
			// StartTx is only entered with a pending frame; this is a
			// programming error.
			panic(fmt.Sprintf("node %s: transmit with empty queue", c.name))
		}
		enc, err := c.cachedEncode(head, c.policy.EOFBits())
		if err != nil {
			// Frames are validated at Enqueue; this is a programming error.
			panic(fmt.Sprintf("node %s: encode queued frame: %v", c.name, err))
		}
		c.txEnc, c.txPos = enc, 0
	}
}

func (c *Controller) latchFrame(level bitstream.Level) {
	if c.transmitter {
		sent := c.txEnc.Bits[c.txPos]
		ref := c.txEnc.Refs[c.txPos]
		if sent != level {
			switch {
			case sent == bitstream.Recessive && arbitrationField(ref.Field):
				// Lost arbitration: continue as a receiver; the sampled bit
				// belongs to the winner's frame and flows into the receive
				// pipeline below.
				c.emit(obs.KindArbitrationLoss, true, 0, uint32(c.txPos))
				c.transmitter = false
			case sent == bitstream.Recessive && ref.Field == frame.FieldACKSlot:
				// Receivers asserting the acknowledgement.
			default:
				c.signalError(ErrBit)
				return
			}
		} else if ref.Field == frame.FieldACKSlot && level == bitstream.Recessive {
			// Nobody acknowledged the frame.
			c.signalError(ErrAck)
			return
		}
		if c.transmitter {
			c.txPos++
		}
	}

	// Receive pipeline: every node, the transmitter included, tracks the
	// frame through the destuffer and assembler so that an arbitration
	// loser can continue seamlessly as a receiver.
	if !c.asm.Done() {
		kind, err := c.destuff.Push(level)
		if err != nil {
			c.signalError(ErrStuff)
			return
		}
		if kind == bitstream.StuffBit {
			return
		}
		if _, aerr := c.asm.Push(level); aerr != nil {
			c.signalError(ErrForm)
		}
		return
	}

	// If the last five CRC bits were equal, one more stuff bit follows the
	// CRC sequence before the CRC delimiter (stuffing covers SOF through
	// the CRC sequence inclusive).
	if c.rxTail == 0 && c.destuff.NextIsStuff() {
		if _, err := c.destuff.Push(level); err != nil {
			c.signalError(ErrStuff)
		}
		return
	}

	// Fixed-form tail: CRC delimiter, ACK slot, ACK delimiter.
	switch c.rxTail {
	case 0: // CRC delimiter must be recessive.
		c.rxTail++
		if level == bitstream.Dominant {
			c.signalError(ErrForm)
		}
	case 1: // ACK slot. The transmitter's checks happened above; a receiver
		// sampling dominant here simply observes the acknowledgement.
		c.rxTail++
	case 2: // ACK delimiter; the end-of-frame region starts next bit.
		c.rxTail++
		if !c.transmitter {
			if level == bitstream.Dominant {
				// A form error this late is signalled from the first EOF
				// bit, exactly like a CRC error.
				c.recordError(ErrForm)
				c.enterEpisode(true, ErrForm)
				return
			}
			if !c.asm.CRCOK() {
				c.recordError(ErrCRC)
				c.enterEpisode(true, ErrCRC)
				return
			}
		}
		c.enterEpisode(false, 0)
	}
}

func (c *Controller) enterEpisode(reject bool, kind ErrorKind) {
	c.state = stEpisode
	// The ACK delimiter is being latched at c.now; the episode's first
	// bit is the next slot.
	c.episode = Episode{
		Start:         c.now + 1,
		RejectAtStart: reject,
		RejectKind:    kind,
		Passive:       c.mode == ErrorPassive,
	}
	c.episode.Open()
}

func (c *Controller) latchEpisode(level bitstream.Level) {
	st := c.policy.Latch(&c.episode, level, c.transmitter)
	if !st.Done {
		c.episode.Pos++
		return
	}
	ep := c.episode
	c.episode = Episode{}
	if st.Signalled && !ep.RejectAtStart {
		// A RejectAtStart error was already recorded when it was detected.
		c.recordError(st.Kind)
	}
	if st.VoteCorrected {
		// MajorCAN's majority vote overturned the signalled error.
		c.emit(obs.KindEOFVoteCorrected, c.transmitter, uint8(st.Kind), uint32(st.Votes))
	}
	c.emitEOFVote(st, &ep)
	if h := c.opts.Hooks.OnVerdict; h != nil {
		h(c.now, st.Verdict, c.transmitter)
	}
	wasTx := c.transmitter
	c.transmitter = false
	switch st.Verdict {
	case VerdictAccept:
		if wasTx {
			f := c.queue.pop()
			c.txOK++
			c.creditSuccess(true)
			c.emit(obs.KindFrameAccepted, true, 0, 0)
			if h := c.opts.Hooks.OnTxSuccess; h != nil {
				h(c.now, f)
			}
		} else if !ep.RejectAtStart {
			c.delivered++
			c.creditSuccess(false)
			c.emit(obs.KindFrameAccepted, false, 0, 0)
			if h := c.opts.Hooks.OnDeliver; h != nil {
				// Only the hook reads the delivered frame, so it is built
				// only for one.
				h(c.now, c.asm.Frame())
			}
		}
	case VerdictReject:
		c.flagOwnerTx = wasTx
		if wasTx {
			c.tec += 8
			if c.opts.DisableRetransmission {
				c.queue.pop()
			} else {
				c.emit(obs.KindRetransmit, true, uint8(st.Kind), 0)
			}
		} else {
			c.rec++
		}
		c.refreshMode()
	}
	if c.state == stOff {
		return
	}
	switch st.After {
	case AfterNone:
		c.enterIntermission()
	case AfterOverloadDelim:
		c.overloads = 1
		c.startDelim(AfterOverloadDelim, st.DelimCredit)
	default:
		c.startDelim(AfterErrorDelim, st.DelimCredit)
	}
}

// emitEOFVote reports a completed end-of-frame episode — the region
// where the protocol variant resolved its verdict — so trace exporters
// can render per-station vote-round spans. Slot is the episode's final
// bit, Aux its length in slots; Cause carries the error kind that drove
// the episode (0 for a clean frame) and FlagRejected a reject verdict.
func (c *Controller) emitEOFVote(st EpisodeStatus, ep *Episode) {
	if c.ev == nil {
		return
	}
	cause := uint8(st.Kind)
	if cause == 0 && ep.RejectAtStart {
		cause = uint8(ep.RejectKind)
	}
	e := obs.Event{
		Slot:    c.now,
		Kind:    obs.KindEOFVote,
		Station: c.station,
		Cause:   cause,
		Attempt: uint16(c.attempts),
		Aux:     uint32(c.now - ep.Start + 1),
	}
	if c.transmitter {
		e.Flags |= obs.FlagTransmitter
	}
	if c.mode == ErrorPassive {
		e.Flags |= obs.FlagPassive
	}
	if st.Verdict == VerdictReject {
		e.Flags |= obs.FlagRejected
	}
	c.ev.Emit(e)
}

// signalError handles an error detected mid-frame (or during a delimiter):
// fault confinement accounting, then transmission of an error flag starting
// with the next bit.
func (c *Controller) signalError(kind ErrorKind) {
	c.recordError(kind)
	wasTx := c.transmitter
	c.transmitter = false
	c.flagOwnerTx = wasTx
	if wasTx {
		// Exception: an error-passive transmitter detecting an ACK error
		// does not increment its TEC (CAN fault confinement rule 3
		// exception), so a lone node does not drift to bus-off.
		if !(kind == ErrAck && c.mode == ErrorPassive) {
			c.tec += 8
		}
		if c.opts.DisableRetransmission {
			c.queue.pop()
		} else {
			c.emit(obs.KindRetransmit, true, uint8(kind), 0)
		}
	} else {
		c.rec++
	}
	c.refreshMode()
	if c.state == stOff {
		return
	}
	c.flagLeft = flagBits
	if c.mode == ErrorPassive {
		c.state = stPassiveFlag
	} else {
		c.state = stErrorFlag
	}
	c.delimAfter = AfterErrorDelim
}

func (c *Controller) recordError(kind ErrorKind) {
	c.errCount[kind]++
	if kind == ErrStuff {
		c.emit(obs.KindStuffError, c.transmitter, uint8(kind), 0)
	}
	// Every recorded error precedes a signalled flag (overload conditions
	// raise overload flags, which are bit-identical bursts): primary when
	// the station itself detected the error in the frame body or a
	// delimiter, secondary when the decision fell out of the end-of-frame
	// episode (a corrupted EOF bit, or another station's flag reaching
	// this station's EOF window — Fig. 3's reactive flags).
	flag := obs.KindErrorFlagPrimary
	if c.state == stEpisode {
		flag = obs.KindErrorFlagSecondary
	}
	c.emit(flag, c.transmitter, uint8(kind), 0)
	if h := c.opts.Hooks.OnError; h != nil {
		h(c.now, kind, c.transmitter)
	}
}

func (c *Controller) latchFlag(level bitstream.Level) {
	if c.state == stErrorFlag || c.state == stOverloadFlag {
		if level == bitstream.Recessive {
			// Bit error while sending an active flag (fault confinement
			// rule: +8).
			if c.flagOwnerTx {
				c.tec += 8
			} else {
				c.rec += 8
			}
			c.refreshMode()
			if c.state == stOff {
				return
			}
		}
	}
	c.flagLeft--
	if c.flagLeft <= 0 {
		after := AfterErrorDelim
		if c.state == stOverloadFlag {
			after = AfterOverloadDelim
		}
		c.startDelim(after, 0)
	}
}

func (c *Controller) startDelim(after After, credit int) {
	c.state = stDelim
	c.delimAfter = after
	c.delimSeen = credit > 0
	c.delimCount = credit
	c.waitDominant = 0
}

func (c *Controller) latchDelim(level bitstream.Level) {
	if !c.delimSeen {
		if level == bitstream.Dominant {
			// Still superposed flags from other nodes. Fault confinement:
			// +8 for every eight consecutive dominant bits after a flag.
			c.waitDominant++
			if c.waitDominant%8 == 0 {
				if c.flagOwnerTx {
					c.tec += 8
				} else {
					c.rec += 8
				}
				c.refreshMode()
			}
			return
		}
		c.delimSeen = true
		c.delimCount = 1
		c.finishDelimIfDone()
		return
	}
	c.delimCount++
	if level == bitstream.Dominant {
		if c.delimCount >= c.policy.DelimiterBits() {
			// Dominant at the last delimiter bit: overload condition.
			c.recordError(ErrOverload)
			c.startOverload()
			return
		}
		// Form error inside the delimiter.
		c.signalError(ErrForm)
		return
	}
	c.finishDelimIfDone()
}

func (c *Controller) finishDelimIfDone() {
	if c.delimCount >= c.policy.DelimiterBits() {
		c.enterIntermission()
	}
}

func (c *Controller) startOverload() {
	if c.overloads >= maxOverloads {
		// The specification allows at most two successive overload frames;
		// treat further dominant violations as form errors.
		c.signalError(ErrForm)
		return
	}
	c.overloads++
	c.state = stOverloadFlag
	c.flagLeft = flagBits
	c.flagOwnerTx = false
}

func (c *Controller) enterIntermission() {
	c.state = stIntermission
	c.intermCount = 0
}

func (c *Controller) latchIntermission(level bitstream.Level) {
	if level == bitstream.Dominant {
		if c.intermCount < frame.IntermissionBits-1 {
			// Dominant during the first two intermission bits: overload.
			c.recordError(ErrOverload)
			c.startOverload()
		} else {
			// Dominant at the third bit of intermission is interpreted as a
			// start of frame.
			c.beginFrame(false)
			c.latchFrame(level)
		}
		return
	}
	c.intermCount++
	if c.intermCount >= frame.IntermissionBits {
		c.overloads = 0
		switch {
		case c.queue.len() == 0:
			c.state = stIdle
		case c.mode == ErrorPassive && c.lastTxSelf:
			// Suspend transmission: an error-passive node that was the
			// transmitter waits eight bits before the next attempt.
			c.state = stSuspend
			c.suspendLeft = 8
		default:
			c.state = stStartTx
		}
	}
}
