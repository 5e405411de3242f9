package node

import (
	"fmt"
	"math"

	"repro/internal/bitstream"
	"repro/internal/frame"
)

// This file is the controller side of the fast bit-slot engine seam
// (internal/bus/fastpath, DESIGN.md §15). Everything here exposes or
// batch-advances existing controller state without changing a single
// transition of the protocol state machine: the fast engine uses these
// accessors to prove a stretch of slots deterministic and to skip the
// per-bit receive pipeline for receivers whose state provably mirrors
// the transmitter's.

// Transmitting reports whether the controller is the transmitter of a
// frame in progress (past the SOF slot, up to the end of the frame
// body). At most one controller on a correct bus is ever in this state
// past arbitration.
func (c *Controller) Transmitting() bool {
	return c.state == stFrame && c.transmitter
}

// StartingFrame reports whether the controller will drive a start-of-
// frame bit this slot. The fast engine replicates the bus's frame-start
// edge emission with this predicate: the reference scan matches exactly
// the stations in this state (a transmitter already past SOF reports
// its current field, never FieldSOF, so it cannot match).
func (c *Controller) StartingFrame() bool {
	return c.state == stStartTx
}

// Attempts returns the transmission-attempt counter as a pre-latch view
// would report it (the value ViewContext.Attempts carries).
func (c *Controller) Attempts() int { return c.attempts }

// EOFRel returns the 1-based EOF-relative position of the bit the
// controller is about to sample, or 0 outside the end-of-frame region,
// where the episode is zero — the same value View().EOFRel carries,
// without building the full view. Disturbance gating (errmodel.EOFOnly)
// keys on it.
func (c *Controller) EOFRel() int { return c.episode.Pos }

// TxWindow returns the remaining pre-stuffed levels this transmitter
// will drive before the ACK slot, aliasing the controller's encoding of
// its queue head (callers must not mutate it; it stays valid while the
// head does, which is the whole transmission). Within this window the
// transmitter's output is a pure function of the encoding: no other
// correct station drives a dominant bit, and the transmitter's own
// sample always matches what it sent. The window is empty when the
// controller is not transmitting or has reached the ACK slot, where
// receivers take over the bus.
func (c *Controller) TxWindow() bitstream.Sequence {
	if c.state != stFrame || !c.transmitter {
		return nil
	}
	enc := c.txEncoding()
	if c.txPos >= enc.AckIndex {
		return nil
	}
	return enc.Bits[c.txPos:enc.AckIndex]
}

// MirrorsPipeline reports whether c is a receiver whose receive-pipeline
// state is identical to transmitter t's: same destuffer registers, same
// assembler state (field position, accumulated bits, CRC), same tail
// counter. Both pipelines are driven by the same sampled levels inside a
// fast-forward window (the transmitter's encoding, undisturbed), and
// every latch is a deterministic function of (pipeline state, level), so
// equality now implies equality after any number of common bits — the
// induction the fast engine's receiver cloning rests on.
func (c *Controller) MirrorsPipeline(t *Controller) bool {
	return c.state == stFrame && !c.transmitter &&
		c.destuff == t.destuff && c.asm == t.asm && c.rxTail == t.rxTail
}

// LatchTxWindow batch-latches win — a prefix of TxWindow() — into the
// transmitter and reports whether it set the receive pipeline directly.
// Inside the window the generic Latch path degenerates: the sampled
// level always equals the driven bit (the window is only entered when
// every other station drives recessive), the field is never the ACK slot
// (TxWindow stops before it), and the receive pipeline tracking the
// controller's own well-formed encoding cannot raise stuff or form
// errors.
//
// A window that reaches the ACK slot leaves the transmitter having
// sampled exactly Bits[:AckIndex] of its encoding (DESIGN.md §15), so
// its pipeline is set to frame.ReceivedAtAck of the queue head — the
// frame on the wire, which keeps the head while it is transmitted — in
// constant time. Any other window replays its bits: advance txPos, feed
// the destuffer/assembler, and absorb the recessive CRC delimiter. The
// impossible branches stay as panics so a seam regression fails loudly
// instead of diverging from the reference engine.
func (c *Controller) LatchTxWindow(win bitstream.Sequence) (adopted bool) {
	c.now += uint64(len(win))
	if enc := c.txEncoding(); c.txPos+len(win) == enc.AckIndex {
		c.destuff, c.asm = frame.ReceivedAtAck(c.encoded, enc)
		c.rxTail = 1
		c.txPos = enc.AckIndex
		return true
	}
	for _, level := range win {
		c.txPos++
		switch {
		case !c.asm.Done():
			kind, err := c.destuff.Push(level)
			if err != nil {
				panic(fmt.Sprintf("node %s: stuff error in own encoding", c.name))
			}
			if kind != bitstream.StuffBit {
				if _, aerr := c.asm.Push(level); aerr != nil {
					panic(fmt.Sprintf("node %s: form error in own encoding", c.name))
				}
			}
		case c.rxTail == 0 && c.destuff.NextIsStuff():
			if _, err := c.destuff.Push(level); err != nil {
				panic(fmt.Sprintf("node %s: stuff error in own encoding", c.name))
			}
		default:
			// CRC delimiter, recessive by construction of the encoding.
			c.rxTail++
		}
	}
	return false
}

// AdoptPipeline copies transmitter t's receive-pipeline state into c and
// advances c's local clock by slots bits. Valid only for a controller
// that MirrorsPipeline(t) held for at the start of a fast-forward window
// in which t latched exactly slots undisturbed bits of its own encoding:
// the copied state is then bit-identical to what slots individual
// latches would have produced, and no observable side effect (event,
// hook, counter, mode change) is skipped because a mirroring receiver
// latching frame-body bits has none.
func (c *Controller) AdoptPipeline(t *Controller, slots uint64) {
	c.destuff = t.destuff
	c.asm = t.asm
	c.rxTail = t.rxTail
	c.now += slots
}

// SteadySlots returns how many slots the controller can latch level
// while its drive stays constant and only counters move: the bits of its
// current stretch before the one whose latch may change state. The
// stretches are
//
//   - an end-of-frame episode's quiet EOF monitoring (recessive only), a
//     6-bit flag, and a policy mode with a fixed end (Episode.steadySlots);
//   - active error and overload flags (dominant only; a recessive sample
//     is a bit error) and passive flags (either level), up to their last
//     bit;
//   - a delimiter waiting out the other stations' flags (dominant only),
//     up to the next eighth dominant bit, which bumps an error counter,
//     and a delimiter past its first recessive bit (recessive only);
//   - intermission and suspend (recessive only);
//   - idle with an empty queue (recessive only) and disconnected without
//     bus-off recovery, both unbounded.
//
// It is 0 in every other state. None of those latches raises an event or
// a hook, so the fast engine latches a stretch of them at once
// (LatchSteady) when every station is steady under the bus level their
// drives make and no disturbance fires.
func (c *Controller) SteadySlots(level bitstream.Level) int {
	recessive := level == bitstream.Recessive
	switch c.state {
	case stEpisode:
		return c.episode.steadySlots(level, c.eofBits)
	case stErrorFlag, stOverloadFlag:
		if recessive {
			return 0
		}
		return max(0, c.flagLeft-1)
	case stPassiveFlag:
		return max(0, c.flagLeft-1)
	case stDelim:
		switch {
		case !c.delimSeen && !recessive:
			return 7 - c.waitDominant%8
		case c.delimSeen && recessive:
			return max(0, c.delimBits-1-c.delimCount)
		}
	case stIntermission:
		if recessive {
			return max(0, frame.IntermissionBits-1-c.intermCount)
		}
	case stSuspend:
		if recessive {
			return max(0, c.suspendLeft-1)
		}
	case stIdle:
		if recessive && c.queue.len() == 0 {
			return math.MaxInt
		}
	case stOff:
		if !c.opts.AutoRecover || c.crashed || c.mode != BusOff {
			return math.MaxInt
		}
	}
	return 0
}

// LatchSteady latches n slots at level, n at most SteadySlots(level):
// exactly what n Latch(level) calls do there — advance the stretch's
// counters and the clock.
func (c *Controller) LatchSteady(level bitstream.Level, n int) {
	switch c.state {
	case stEpisode:
		c.episode.latchSteady(level, n)
	case stErrorFlag, stOverloadFlag, stPassiveFlag:
		c.flagLeft -= n
	case stDelim:
		if c.delimSeen {
			c.delimCount += n
		} else {
			c.waitDominant += n
		}
	case stIntermission:
		c.intermCount += n
	case stSuspend:
		c.suspendLeft -= n
	}
	c.now += uint64(n)
}
