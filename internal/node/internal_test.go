package node

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/frame"
)

// stubPolicy satisfies EOFPolicy for tests that never reach the episode.
type stubPolicy struct{}

func (stubPolicy) Name() string                   { return "stub" }
func (stubPolicy) EOFBits() int                   { return 7 }
func (stubPolicy) DelimiterBits() int             { return 8 }
func (stubPolicy) Drive(*Episode) bitstream.Level { return bitstream.Recessive }
func (stubPolicy) Phase(*Episode) bus.Phase       { return bus.PhaseEOF }
func (stubPolicy) Latch(e *Episode, _ bitstream.Level, _ bool) bool {
	e.Status = EpisodeStatus{Verdict: VerdictAccept, After: AfterNone}
	return true
}

func TestTxQueueOrdering(t *testing.T) {
	var q txQueue
	frames := []*frame.Frame{
		{ID: 0x50, Data: []byte{1}},
		{ID: 0x10, Data: []byte{2}},
		{ID: 0x30, Data: []byte{3}},
		{ID: 0x10, Data: []byte{4}}, // equal ID: FIFO after the earlier one
	}
	for _, f := range frames {
		q.push(f, false)
	}
	if q.len() != 4 {
		t.Fatalf("len = %d", q.len())
	}
	wantData := []byte{2, 4, 3, 1}
	for i, want := range wantData {
		f := q.pop()
		if f == nil || f.Data[0] != want {
			t.Fatalf("pop %d = %v, want data %d", i, f, want)
		}
	}
	if q.pop() != nil {
		t.Error("pop on empty queue must return nil")
	}
	if q.peek() != nil {
		t.Error("peek on empty queue must return nil")
	}
}

func TestArbKeyOrdering(t *testing.T) {
	// Pairwise wire-priority facts.
	pairs := []struct {
		name          string
		winner, loser *frame.Frame
	}{
		{"lower id", &frame.Frame{ID: 0x10}, &frame.Frame{ID: 0x11}},
		{"data over remote", &frame.Frame{ID: 0x10}, &frame.Frame{ID: 0x10, Remote: true, DLC: 1}},
		{
			"standard over extended with same base",
			&frame.Frame{ID: 0x123},
			&frame.Frame{ID: 0x123 << 18, Format: frame.Extended},
		},
		{
			"standard remote over extended data with same base",
			&frame.Frame{ID: 0x123, Remote: true, DLC: 0},
			&frame.Frame{ID: 0x123 << 18, Format: frame.Extended},
		},
		{
			"extended: base id dominates extension",
			&frame.Frame{ID: 0x100<<18 | 0x3FFFF, Format: frame.Extended},
			&frame.Frame{ID: 0x101 << 18, Format: frame.Extended},
		},
		{
			"extended: extension tie-break",
			&frame.Frame{ID: 0x100<<18 | 0x00001, Format: frame.Extended},
			&frame.Frame{ID: 0x100<<18 | 0x00002, Format: frame.Extended},
		},
	}
	for _, tt := range pairs {
		t.Run(tt.name, func(t *testing.T) {
			if !priorityLess(tt.winner, tt.loser) {
				t.Errorf("priorityLess(%v, %v) = false, want true", tt.winner, tt.loser)
			}
			if priorityLess(tt.loser, tt.winner) {
				t.Errorf("priorityLess(%v, %v) = true, want false", tt.loser, tt.winner)
			}
		})
	}
}

func TestRefreshModeTransitions(t *testing.T) {
	c := New("x", stubPolicy{}, Options{})
	if c.Mode() != ErrorActive {
		t.Fatalf("initial mode %v", c.Mode())
	}
	c.SetErrorCounters(PassiveLimit, 0)
	if c.Mode() != ErrorPassive {
		t.Errorf("TEC=128 => %v, want error-passive", c.Mode())
	}
	c.SetErrorCounters(PassiveLimit-1, 0)
	if c.Mode() != ErrorActive {
		t.Errorf("TEC=127 => %v, want error-active again", c.Mode())
	}
	c.SetErrorCounters(0, PassiveLimit)
	if c.Mode() != ErrorPassive {
		t.Errorf("REC=128 => %v, want error-passive", c.Mode())
	}
	c.SetErrorCounters(BusOffLimit, 0)
	if c.Mode() != BusOff {
		t.Errorf("TEC=256 => %v, want bus-off", c.Mode())
	}
	// Bus-off is sticky against counter resets without AutoRecover: the
	// state machine stays off even though the mode tracking updates.
	if c.state != stOff {
		t.Error("bus-off must park the state machine in Off")
	}
}

func TestWarningSwitchOffMode(t *testing.T) {
	c := New("x", stubPolicy{}, Options{WarningSwitchOff: true})
	c.SetErrorCounters(0, WarningLimit)
	if c.Mode() != SwitchedOff {
		t.Errorf("REC=96 with the policy => %v, want switched-off", c.Mode())
	}
	// Terminal: nothing brings it back.
	c.SetErrorCounters(0, 0)
	if c.Mode() != SwitchedOff {
		t.Errorf("switched-off must be terminal, got %v", c.Mode())
	}
}

func TestModeChangeHook(t *testing.T) {
	var transitions []Mode
	c := New("x", stubPolicy{}, Options{Hooks: Hooks{
		OnModeChange: func(_ uint64, _, to Mode) { transitions = append(transitions, to) },
	}})
	c.SetErrorCounters(PassiveLimit, 0)
	c.SetErrorCounters(BusOffLimit, 0)
	want := []Mode{ErrorPassive, BusOff}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Errorf("transition %d = %v, want %v", i, transitions[i], want[i])
		}
	}
}

func TestCreditSuccessReceiverReentry(t *testing.T) {
	c := New("x", stubPolicy{}, Options{})
	c.SetErrorCounters(0, PassiveLimit+20)
	c.creditSuccess(false)
	if _, rec := c.Counters(); rec != PassiveLimit-9 {
		t.Errorf("REC after success from >=128 = %d, want %d", rec, PassiveLimit-9)
	}
	if c.Mode() != ErrorActive {
		t.Errorf("mode = %v, want error-active after the re-entry credit", c.Mode())
	}
}

func TestNilPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with nil policy must panic")
		}
	}()
	New("x", nil, Options{})
}
