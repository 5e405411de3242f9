package node

import (
	"fmt"

	"repro/internal/bitstream"
)

// InEpisode reports whether the controller holds an end-of-frame
// episode, the one part of its state Snapshot and AppendKey cannot
// capture.
func (c *Controller) InEpisode() bool { return c.episode != nil }

// AppendKey appends the controller's protocol state — every field
// Snapshot captures — to a state key (see bitstream.AppendKeyBool), so
// that two controllers of the same configuration have equal keys exactly
// when they behave identically from here on. Queued frames and the
// transmit encoding are keyed by content. Like Snapshot it must be called
// outside an end-of-frame episode and panics inside one.
func (c *Controller) AppendKey(b []byte) []byte {
	if c.episode != nil {
		panic(fmt.Sprintf("node %s: state key inside an end-of-frame episode", c.name))
	}
	m := &c.machine
	b = append(b, byte(m.state))
	b = bitstream.AppendKeyUint(b, m.now)
	b = bitstream.AppendKeyUint(b, uint64(len(m.queue.frames)))
	for _, f := range m.queue.frames {
		b = f.AppendKey(b)
	}
	b = bitstream.AppendKeyBool(b, m.transmitter)
	b = bitstream.AppendKeyBool(b, m.txEnc != nil)
	if m.txEnc != nil {
		b = m.txEnc.AppendKey(b)
	}
	b = bitstream.AppendKeyInt(b, int64(m.txPos))
	b = m.destuff.AppendKey(b)
	b = m.asm.AppendKey(b)
	b = bitstream.AppendKeyInt(b, int64(m.rxTail))
	b = bitstream.AppendKeyUint(b, m.episodeStart)
	b = bitstream.AppendKeyBool(b, m.rejectAtStart)
	b = append(b, byte(m.rejectKind))
	b = bitstream.AppendKeyInt(b, int64(m.flagLeft))
	b = append(b, byte(m.flagVerdict), byte(m.delimAfter))
	b = bitstream.AppendKeyBool(b, m.delimSeen)
	for _, v := range [...]int{m.delimCount, m.waitDominant, m.overloads, m.intermCount, m.suspendLeft} {
		b = bitstream.AppendKeyInt(b, int64(v))
	}
	b = bitstream.AppendKeyBool(b, m.lastTxSelf)
	b = bitstream.AppendKeyBool(b, m.flagOwnerTx)
	b = bitstream.AppendKeyInt(b, int64(m.tec))
	b = bitstream.AppendKeyInt(b, int64(m.rec))
	b = append(b, byte(m.mode))
	b = bitstream.AppendKeyInt(b, int64(m.attempts))
	b = bitstream.AppendKeyBool(b, m.crashed)
	b = bitstream.AppendKeyUint(b, m.delivered)
	b = bitstream.AppendKeyUint(b, m.txOK)
	for _, n := range m.errCount {
		b = bitstream.AppendKeyUint(b, n)
	}
	b = bitstream.AppendKeyInt(b, int64(m.recovRun))
	return bitstream.AppendKeyInt(b, int64(m.recovSeq))
}
