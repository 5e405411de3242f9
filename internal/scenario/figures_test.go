package scenario

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/node"
	"repro/internal/verify"
)

// Fig. 1a: the last-bit rule saves consistency — everyone accepts, no
// retransmission of a frame the transmitter considered successful.
func TestFig1aStandardCAN(t *testing.T) {
	out, err := Fig1a(core.NewStandard())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiet {
		t.Fatal("scenario did not quiesce")
	}
	if !out.ExactlyOnce() {
		t.Errorf("want exactly-once everywhere, got deliveries %v", out.DeliveredCount)
	}
	if !out.TxSuccess {
		t.Error("transmitter must consider the frame successful")
	}
	if out.Retransmitted {
		t.Error("no retransmission expected in Fig. 1a")
	}
}

// Fig. 1b: double reception at the Y set.
func TestFig1bStandardCAN(t *testing.T) {
	out, err := Fig1b(core.NewStandard())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiet {
		t.Fatal("scenario did not quiesce")
	}
	if !out.Retransmitted {
		t.Error("the transmitter must retransmit in Fig. 1b")
	}
	if out.Fate != verify.Duplicate {
		t.Errorf("want double reception at the Y set, got deliveries %v", out.DeliveredCount)
	}
	// X (stations 1,2) get the frame exactly once (from the retransmission);
	// Y (stations 3,4) get it twice.
	for _, x := range defaultX {
		if out.DeliveredCount[x] != 1 {
			t.Errorf("station %d (X) delivered %d, want 1", x, out.DeliveredCount[x])
		}
	}
	for _, y := range defaultY {
		if out.DeliveredCount[y] != 2 {
			t.Errorf("station %d (Y) delivered %d, want 2", y, out.DeliveredCount[y])
		}
	}
	if out.Fate == verify.Omission {
		t.Error("Fig. 1b is not an omission scenario")
	}
}

// Fig. 1c: with the transmitter crashing before the retransmission, the
// X set never receives the frame: inconsistent message omission.
func TestFig1cStandardCAN(t *testing.T) {
	out, err := Fig1c(core.NewStandard())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiet {
		t.Fatal("scenario did not quiesce")
	}
	if !out.TxCrashed {
		t.Fatal("the transmitter must have crashed")
	}
	if out.Fate != verify.Omission {
		t.Errorf("want an inconsistent message omission, got deliveries %v", out.DeliveredCount)
	}
	for _, x := range defaultX {
		if out.DeliveredCount[x] != 0 {
			t.Errorf("station %d (X) delivered %d, want 0", x, out.DeliveredCount[x])
		}
	}
	for _, y := range defaultY {
		if out.DeliveredCount[y] != 1 {
			t.Errorf("station %d (Y) delivered %d, want 1", y, out.DeliveredCount[y])
		}
	}
}

// Fig. 2: MinorCAN achieves consistency in all three Fig. 1 scenarios.
func TestFig2MinorCAN(t *testing.T) {
	a, b, c, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("1a", func(t *testing.T) {
		if !a.ExactlyOnce() {
			t.Errorf("want exactly-once, got %v", a.DeliveredCount)
		}
		if a.Retransmitted {
			t.Error("MinorCAN must avoid the retransmission in the 1a scenario")
		}
	})
	t.Run("1b", func(t *testing.T) {
		if !b.ExactlyOnce() {
			t.Errorf("want exactly-once (no double reception), got %v", b.DeliveredCount)
		}
		if !b.Retransmitted {
			t.Error("the frame must be retransmitted (all nodes rejected)")
		}
		if b.Fate == verify.Duplicate {
			t.Error("MinorCAN must avoid the double reception of Fig. 1b")
		}
	})
	t.Run("1c", func(t *testing.T) {
		if c.Fate == verify.Omission {
			t.Errorf("MinorCAN must avoid the IMO of Fig. 1c, got %v", c.DeliveredCount)
		}
		// With the transmitter crashed before retransmission nobody may
		// deliver: a consistent omission.
		for i, n := range c.DeliveredCount {
			if i == 0 {
				continue
			}
			if n != 0 {
				t.Errorf("station %d delivered %d, want 0 (consistent omission)", i, n)
			}
		}
	})
}

// The paper, Section 3: "if all the nodes detect an error in the last bit
// of EOF, MinorCAN will consider all the errors not primary and the frame
// will be unnecessarily but consistently retransmitted/rejected."
func TestMinorCANAllLastBitUnnecessaryButConsistent(t *testing.T) {
	policy := core.NewMinorCAN()
	cfg := baseConfig("all nodes disturbed at the last EOF bit", policy)
	cfg.Script = at([]int{0, 1, 2, 3, 4}, policy.EOFBits()).Fill(errmodel.NewScript())
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Retransmitted {
		t.Error("the frame must be (unnecessarily) retransmitted")
	}
	if !out.ExactlyOnce() {
		t.Errorf("the retransmission must end exactly-once everywhere, got %v", out.DeliveredCount)
	}
	if out.Fate == verify.Duplicate || out.Fate == verify.Omission {
		t.Error("the outcome must be consistent")
	}
}

// Fig. 3a: the new scenario defeats standard CAN with a correct
// transmitter: two disturbances produce an IMO.
func TestFig3aStandardCAN(t *testing.T) {
	out, err := Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiet {
		t.Fatal("scenario did not quiesce")
	}
	if out.TxCrashed {
		t.Fatal("the transmitter must remain correct in Fig. 3a")
	}
	if !out.TxSuccess {
		t.Error("the transmitter must consider the frame successful (no retransmission)")
	}
	if out.Retransmitted {
		t.Error("no retransmission may happen in Fig. 3a")
	}
	if out.Fate != verify.Omission {
		t.Errorf("want an inconsistent message omission, got deliveries %v", out.DeliveredCount)
	}
	for _, x := range defaultX {
		if out.DeliveredCount[x] != 0 {
			t.Errorf("station %d (X) delivered %d, want 0", x, out.DeliveredCount[x])
		}
	}
	for _, y := range defaultY {
		if out.DeliveredCount[y] != 1 {
			t.Errorf("station %d (Y) delivered %d, want 1", y, out.DeliveredCount[y])
		}
	}
}

// Fig. 3b: the same scenario defeats MinorCAN: Y decides "primary error"
// and accepts while X rejects.
func TestFig3bMinorCAN(t *testing.T) {
	out, err := Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiet {
		t.Fatal("scenario did not quiesce")
	}
	if out.Fate != verify.Omission {
		t.Errorf("want an inconsistent message omission, got deliveries %v", out.DeliveredCount)
	}
	if out.Retransmitted {
		t.Error("no retransmission may happen in Fig. 3b")
	}
}

// MajorCAN survives the paper's new scenario: the same two disturbances
// must end consistently.
func TestNewScenarioMajorCAN(t *testing.T) {
	for _, m := range []int{3, 5, 8} {
		policy := core.MustMajorCAN(m)
		out, err := NewScenario(policy)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Quiet {
			t.Fatalf("m=%d: scenario did not quiesce", m)
		}
		if out.Fate == verify.Omission {
			t.Errorf("m=%d: MajorCAN must avoid the IMO, got deliveries %v", m, out.DeliveredCount)
		}
		if out.Fate == verify.Duplicate {
			t.Errorf("m=%d: MajorCAN must avoid double reception, got %v", m, out.DeliveredCount)
		}
		if !out.ExactlyOnce() {
			t.Errorf("m=%d: want exactly-once everywhere, got %v", m, out.DeliveredCount)
		}
	}
}

// Fig. 5: MajorCAN_5 withstands five errors: X disturbed at EOF bit 3, the
// transmitter blinded twice, and two sampling-window errors; everyone must
// accept without retransmission.
func TestFig5MajorCAN5(t *testing.T) {
	out, err := Fig5(5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Quiet {
		t.Fatal("scenario did not quiesce")
	}
	if !out.ExactlyOnce() {
		t.Errorf("want exactly-once everywhere, got deliveries %v", out.DeliveredCount)
	}
	if out.Retransmitted {
		t.Error("the frame must be accepted on the first attempt")
	}
	if !out.TxSuccess {
		t.Error("the transmitter must consider the frame successful")
	}
}

// Fig. 4: the per-position behaviour table of a MajorCAN_5 node.
func TestFig4MajorCAN5(t *testing.T) {
	rows, err := Fig4(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 { // CRC error + EOF bits 1..10
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	for _, r := range rows {
		if !r.BusConsistent {
			t.Errorf("%s: bus inconsistent", r.Label())
		}
		switch {
		case r.Position == 0: // CRC error: flag, no sampling, reject
			if r.Extended || r.Sampled || r.Verdict != node.VerdictReject {
				t.Errorf("CRC error row = %+v, want 6-bit flag, no sampling, reject", r)
			}
		case r.Position <= 5: // first sub-field: 6-bit flag + sampling
			if r.Extended {
				t.Errorf("%s: must use the 6-bit flag", r.Label())
			}
			if !r.Sampled {
				t.Errorf("%s: must perform the sampling", r.Label())
			}
		default: // second sub-field: extended flag, accept
			if !r.Extended {
				t.Errorf("%s: must use the extended flag", r.Label())
			}
			if r.Verdict != node.VerdictAccept {
				t.Errorf("%s: must accept the frame", r.Label())
			}
		}
	}
	// A single error in the first sub-field at position p<5 leads to a
	// consistent reject (retransmission); at p=5 the others detect it in
	// the second sub-field and everyone accepts.
	for _, r := range rows[1:6] {
		want := node.VerdictReject
		if r.Position == 5 {
			want = node.VerdictAccept
		}
		if r.Verdict != want {
			t.Errorf("%s: verdict = %v, want %v", r.Label(), r.Verdict, want)
		}
	}
}

// Under MajorCAN the double-reception scenario of Fig. 1b must also end
// exactly-once.
func TestFig1bMajorCAN(t *testing.T) {
	out, err := Fig1b(core.MustMajorCAN(5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.ExactlyOnce() {
		t.Errorf("want exactly-once, got %v", out.DeliveredCount)
	}
	if out.Fate == verify.Duplicate {
		t.Error("MajorCAN must avoid double reception")
	}
}

// Under MajorCAN the crash scenario of Fig. 1c must end consistently
// (either everyone has the frame or nobody does).
func TestFig1cMajorCAN(t *testing.T) {
	out, err := Fig1c(core.MustMajorCAN(5))
	if err != nil {
		t.Fatal(err)
	}
	if out.Fate == verify.Omission {
		t.Errorf("MajorCAN must avoid the IMO, got deliveries %v", out.DeliveredCount)
	}
}

// Fig. 3a is one point of the exhaustive verifier's enumeration: checking
// standard CAN on the figure's five stations with up to three flips finds
// the figure's own pattern and classifies it as an omission.
func TestFig3aIsAVerifyPattern(t *testing.T) {
	policy := core.NewStandard()
	want := fig3Pattern(policy).String()
	if want != "s0@7 s1@6 s2@6" {
		t.Fatalf("Fig. 3a pattern = %q", want)
	}
	rep, _, err := verify.Exhaustive(context.Background(), verify.Config{
		Policy:      policy,
		Stations:    defaultNodes,
		MaxFlips:    3,
		Positions:   lastEOF(policy),
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		if v.Pattern.String() == want {
			if v.Outcome != verify.Omission {
				t.Errorf("%s classified %v, want %v", want, v.Outcome, verify.Omission)
			}
			return
		}
	}
	t.Errorf("%d patterns checked, %s not among the %d violations", rep.Checked, want, len(rep.Violations))
}
