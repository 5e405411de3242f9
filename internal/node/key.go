package node

import "repro/internal/bitstream"

// InEpisode reports whether the controller is inside an end-of-frame
// episode.
func (c *Controller) InEpisode() bool { return c.state == stEpisode }

// AppendKey appends the controller's protocol state — every field
// Snapshot captures — to a state key (see bitstream.AppendKeyBool), so
// that two controllers of the same configuration have equal keys exactly
// when they behave identically from here on. Queued frames and the
// transmit encoding are keyed by content.
func (c *Controller) AppendKey(b []byte) []byte {
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
	b = m.episode.appendKey(b)
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

// appendKey appends every field of the episode to a state key.
func (e *Episode) appendKey(b []byte) []byte {
	b = bitstream.AppendKeyUint(b, e.Start)
	b = bitstream.AppendKeyBool(b, e.RejectAtStart)
	b = append(b, byte(e.RejectKind))
	b = bitstream.AppendKeyBool(b, e.Passive)
	b = bitstream.AppendKeyInt(b, int64(e.Pos))
	b = append(b, e.Mode)
	b = bitstream.AppendKeyInt(b, int64(e.FlagLeft))
	b = bitstream.AppendKeyInt(b, int64(e.ModeEnd))
	b = bitstream.AppendKeyInt(b, int64(e.VoteFrom))
	b = bitstream.AppendKeyInt(b, int64(e.Votes))
	st := &e.Status
	b = bitstream.AppendKeyBool(b, st.Done)
	b = append(b, byte(st.Verdict), byte(st.After))
	b = bitstream.AppendKeyInt(b, int64(st.DelimCredit))
	b = bitstream.AppendKeyBool(b, st.Signalled)
	b = append(b, byte(st.Kind))
	b = bitstream.AppendKeyBool(b, st.VoteCorrected)
	return bitstream.AppendKeyInt(b, int64(st.Votes))
}
