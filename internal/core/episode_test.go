package core_test

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/node"
)

// episode steps one end-of-frame episode of a policy the way the
// controller does: the policy's Drive, Phase and Latch over the episode
// value, the position advancing after every latched bit.
type episode struct {
	p  node.EOFPolicy
	e  node.Episode
	tx bool
}

// newEpisode opens an episode with the given facts.
func newEpisode(p node.EOFPolicy, e node.Episode, transmitter bool) *episode {
	e.Open()
	return &episode{p: p, e: e, tx: transmitter}
}

func (ep *episode) Drive() bitstream.Level { return ep.p.Drive(&ep.e) }

func (ep *episode) Phase() (bus.Phase, int) { return ep.p.Phase(&ep.e), ep.e.Pos }

// status is the episode's outcome after a latch that ended it, and the
// zero status after any other latch.
type status struct {
	node.EpisodeStatus
	Done bool
}

func (ep *episode) Latch(level bitstream.Level) status {
	done := ep.p.Latch(&ep.e, level, ep.tx)
	ep.e.Pos++
	if !done {
		return status{}
	}
	return status{EpisodeStatus: ep.e.Status, Done: true}
}

// drive feeds a level sequence into an episode and returns the drives it
// produced (one per latched bit, queried before each Latch) and the final
// status.
func drive(t *testing.T, ep *episode, levels string) (bitstream.Sequence, status) {
	t.Helper()
	seq, err := bitstream.ParseSequence(levels)
	if err != nil {
		t.Fatal(err)
	}
	var out bitstream.Sequence
	var st status
	for i, l := range seq {
		out = append(out, ep.Drive())
		st = ep.Latch(l)
		if st.Done && i != len(seq)-1 {
			t.Fatalf("episode finished early at bit %d of %d", i+1, len(seq))
		}
	}
	return out, st
}

func TestStandardEpisodeCleanAccept(t *testing.T) {
	ep := newEpisode(core.NewStandard(), node.Episode{}, false)
	out, st := drive(t, ep, "rrrrrrr") // 7 clean EOF bits
	if !st.Done || st.Verdict != node.VerdictAccept || st.After != node.AfterNone {
		t.Errorf("status = %+v, want done/accept/none", st)
	}
	if out.Compact() != "rrrrrrr" {
		t.Errorf("drives = %s, want all recessive", out.Compact())
	}
}

func TestStandardEpisodeReceiverEarlyErrorRejects(t *testing.T) {
	ep := newEpisode(core.NewStandard(), node.Episode{}, false)
	// Dominant at EOF bit 3: 6-bit error flag at bits 4..9, then done.
	out, st := drive(t, ep, "rrd"+"rrrrrr")
	if !st.Done || st.Verdict != node.VerdictReject || st.After != node.AfterErrorDelim {
		t.Errorf("status = %+v, want done/reject/error-delim", st)
	}
	if out.Compact() != "rrr"+"dddddd" {
		t.Errorf("drives = %s, want flag after the error", out.Compact())
	}
	if !st.Signalled || st.Kind != node.ErrForm {
		t.Errorf("signalled=%v kind=%v, want form error", st.Signalled, st.Kind)
	}
}

func TestStandardEpisodeLastBitRule(t *testing.T) {
	t.Run("receiver accepts with overload flag", func(t *testing.T) {
		ep := newEpisode(core.NewStandard(), node.Episode{}, false)
		out, st := drive(t, ep, "rrrrrr"+"d"+"rrrrrr")
		if st.Verdict != node.VerdictAccept || st.After != node.AfterOverloadDelim {
			t.Errorf("status = %+v, want accept/overload-delim", st)
		}
		if out.Compact() != "rrrrrrr"+"dddddd" {
			t.Errorf("drives = %s", out.Compact())
		}
	})
	t.Run("transmitter rejects and retransmits", func(t *testing.T) {
		ep := newEpisode(core.NewStandard(), node.Episode{}, true)
		_, st := drive(t, ep, "rrrrrr"+"d"+"rrrrrr")
		if st.Verdict != node.VerdictReject || st.After != node.AfterErrorDelim {
			t.Errorf("status = %+v, want reject/error-delim", st)
		}
		if st.Kind != node.ErrBit {
			t.Errorf("kind = %v, want bit error", st.Kind)
		}
	})
}

func TestStandardEpisodeRejectAtStart(t *testing.T) {
	ep := newEpisode(core.NewStandard(), node.Episode{RejectAtStart: true, RejectKind: node.ErrCRC}, false)
	// Flag occupies EOF bits 1..6 regardless of the bus.
	out, st := drive(t, ep, "dddddd")
	if st.Verdict != node.VerdictReject || st.Kind != node.ErrCRC {
		t.Errorf("status = %+v, want reject with CRC kind", st)
	}
	if out.Compact() != "dddddd" {
		t.Errorf("drives = %s, want immediate flag", out.Compact())
	}
}

func TestMinorEpisodePrimaryProbeAccept(t *testing.T) {
	// Error at the last bit, then dominant at the probe bit (another
	// node's flag still running): primary error, accept.
	ep := newEpisode(core.NewMinorCAN(), node.Episode{}, false)
	out, st := drive(t, ep, "rrrrrr"+"d"+"rrrrrr"+"d")
	if st.Verdict != node.VerdictAccept || st.After != node.AfterOverloadDelim {
		t.Errorf("status = %+v, want accept/overload-delim", st)
	}
	if st.DelimCredit != 0 {
		t.Errorf("delim credit = %d, want 0 on the dominant probe", st.DelimCredit)
	}
	if out.Compact() != "rrrrrrr"+"dddddd"+"r" {
		t.Errorf("drives = %s", out.Compact())
	}
}

func TestMinorEpisodePrimaryProbeReject(t *testing.T) {
	// Error at the last bit, recessive probe: someone flagged before us,
	// reject; the probe bit counts as the first delimiter bit.
	ep := newEpisode(core.NewMinorCAN(), node.Episode{}, false)
	_, st := drive(t, ep, "rrrrrr"+"d"+"rrrrrr"+"r")
	if st.Verdict != node.VerdictReject || st.After != node.AfterErrorDelim {
		t.Errorf("status = %+v, want reject/error-delim", st)
	}
	if st.DelimCredit != 1 {
		t.Errorf("delim credit = %d, want 1", st.DelimCredit)
	}
}

func TestMinorEpisodeEarlyErrorStandardBehaviour(t *testing.T) {
	ep := newEpisode(core.NewMinorCAN(), node.Episode{}, false)
	_, st := drive(t, ep, "d"+"rrrrrr")
	if st.Verdict != node.VerdictReject {
		t.Errorf("verdict = %v, want reject", st.Verdict)
	}
}

func TestMajorEpisodeCleanAccept(t *testing.T) {
	m := 5
	ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
	levels := ""
	for i := 0; i < 2*m; i++ {
		levels += "r"
	}
	out, st := drive(t, ep, levels)
	if !st.Done || st.Verdict != node.VerdictAccept || st.After != node.AfterNone {
		t.Errorf("status = %+v, want done/accept/none", st)
	}
	if out.CountDominant() != 0 {
		t.Errorf("clean episode must drive only recessive, got %s", out.Compact())
	}
}

// First sub-field detection: 6-bit flag, then sampling through 3m+5 with a
// majority vote.
func TestMajorEpisodeFirstSubfieldSampling(t *testing.T) {
	m := 5
	t.Run("majority dominant accepts", func(t *testing.T) {
		ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
		// Error at pos 3; flag at 4..9; quiet 10..11; window 12..20 all
		// dominant (an extender notifying).
		levels := "rrd" + "rrrrrr" + "rr" + "ddddddddd"
		out, st := drive(t, ep, levels)
		if st.Verdict != node.VerdictAccept || st.After != node.AfterErrorDelim {
			t.Errorf("status = %+v, want accept/error-delim", st)
		}
		if out.Compact() != "rrr"+"dddddd"+"rr"+"rrrrrrrrr" {
			t.Errorf("drives = %s", out.Compact())
		}
	})
	t.Run("exact majority m of 2m-1 accepts", func(t *testing.T) {
		ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
		levels := "rrd" + "rrrrrr" + "rr" + "dddddrrrr" // 5 of 9 dominant
		_, st := drive(t, ep, levels)
		if st.Verdict != node.VerdictAccept {
			t.Errorf("verdict = %v, want accept at exactly m votes", st.Verdict)
		}
	})
	t.Run("minority dominant rejects", func(t *testing.T) {
		ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
		levels := "rrd" + "rrrrrr" + "rr" + "ddddrrrrr" // 4 of 9 dominant
		_, st := drive(t, ep, levels)
		if st.Verdict != node.VerdictReject {
			t.Errorf("verdict = %v, want reject below majority", st.Verdict)
		}
	})
	t.Run("dominants outside the window are not votes", func(t *testing.T) {
		ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
		// Error at pos 1; flag 2..7; positions 8..11 dominant (other
		// flags, before the window); window 12..20 all recessive.
		levels := "d" + "rrrrrr" + "dddd" + "rrrrrrrrr"
		_, st := drive(t, ep, levels)
		if st.Verdict != node.VerdictReject {
			t.Errorf("verdict = %v, want reject (no in-window votes)", st.Verdict)
		}
	})
}

// Second sub-field detection: accept and extend the flag through 3m+5.
func TestMajorEpisodeSecondSubfieldExtends(t *testing.T) {
	m := 5
	ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
	// Error at pos 6 (first bit of the second sub-field): extended flag
	// from 7 through 20.
	levels := "rrrrr" + "d" + "dddddddddddddd" // pos 1..20
	out, st := drive(t, ep, levels)
	if st.Verdict != node.VerdictAccept || st.After != node.AfterErrorDelim {
		t.Errorf("status = %+v, want accept/error-delim", st)
	}
	want := "rrrrrr" + "dddddddddddddd"
	if out.Compact() != want {
		t.Errorf("drives = %s, want %s", out.Compact(), want)
	}
}

// RejectAtStart: 6-bit flag at 1..6, then silent waiting through 3m+5;
// even an all-dominant bus (others accepting) must not change the verdict.
func TestMajorEpisodeRejectAtStartNeverAccepts(t *testing.T) {
	m := 5
	ep := newEpisode(core.MustMajorCAN(m), node.Episode{RejectAtStart: true, RejectKind: node.ErrCRC}, false)
	levels := "dddddd" + "dddddddddddddd" // bus dominant throughout
	out, st := drive(t, ep, levels)
	if st.Verdict != node.VerdictReject {
		t.Errorf("verdict = %v, a CRC-error node must never accept", st.Verdict)
	}
	want := "dddddd" + "rrrrrrrrrrrrrr"
	if out.Compact() != want {
		t.Errorf("drives = %s, want flag then silence", out.Compact())
	}
}

// Second errors during the episode are suppressed: a sampling node seeing
// stray dominants outside the window sends no additional flag.
func TestMajorEpisodeSuppressesSecondErrors(t *testing.T) {
	m := 5
	ep := newEpisode(core.MustMajorCAN(m), node.Episode{}, false)
	// Error at 2, flag 3..8, stray dominant at 10, window 12..20 recessive.
	levels := "rd" + "rrrrrr" + "rd" + "r" + "rrrrrrrrr" // pos 1..20
	out, st := drive(t, ep, levels)
	if st.Verdict != node.VerdictReject {
		t.Errorf("verdict = %v, want reject", st.Verdict)
	}
	// Drives after the 6-bit flag must stay recessive (no second flag).
	if out[8:].CountDominant() != 0 {
		t.Errorf("second error must not be signalled, drives = %s", out.Compact())
	}
}

// Phase reporting positions are 1-based EOF-relative, and the paper's
// boundaries are exposed through the policy accessors.
func TestMajorEpisodePhaseReporting(t *testing.T) {
	m := 5
	p := core.MustMajorCAN(m)
	ep := newEpisode(p, node.Episode{}, false)
	phase, pos := ep.Phase()
	if phase != bus.PhaseEOF || pos != 1 {
		t.Errorf("initial phase = %v@%d, want eof@1", phase, pos)
	}
	ep.Latch(bitstream.Dominant) // error at pos 1
	phase, pos = ep.Phase()
	if phase != bus.PhaseErrorFlag || pos != 2 {
		t.Errorf("after error: %v@%d, want error-flag@2", phase, pos)
	}
	for i := 0; i < 6; i++ {
		ep.Latch(bitstream.Recessive)
	}
	phase, pos = ep.Phase()
	if phase != bus.PhaseSampling || pos != 8 {
		t.Errorf("after flag: %v@%d, want sampling@8", phase, pos)
	}
}
