package hlp

import (
	"testing"

	"repro/internal/abcheck"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/sim"
)

func allProtocols() []Protocol {
	return []Protocol{RawCAN, EDCAN, RELCAN, TOTCAN}
}

// Error-free runs: every protocol must achieve reliable delivery; TOTCAN
// must provide total order.
func TestErrorFreeAllProtocols(t *testing.T) {
	for _, proto := range allProtocols() {
		t.Run(proto.String(), func(t *testing.T) {
			s := MustStack(4, core.NewStandard(), Options{Protocol: proto})
			if _, err := s.Procs[0].Broadcast([]byte{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Procs[1].Broadcast([]byte{2}); err != nil {
				t.Fatal(err)
			}
			if !s.RunUntilQuiet(20000) {
				t.Fatal("stack did not quiesce")
			}
			r := s.Check()
			if !r.AtomicBroadcast() {
				t.Errorf("error-free run must satisfy all properties:\n%s", r.Summary())
			}
			for i, p := range s.Procs {
				if got := len(p.Delivered()); got != 2 {
					t.Errorf("process %d delivered %d messages, want 2", i, got)
				}
			}
		})
	}
}

// fig3aDisturbance installs the paper's new-scenario disturbance pattern
// for the first frame on the bus: the X set misses sees an error at the
// last but one EOF bit, the transmitter is blinded at its last EOF bit.
func fig3aDisturbance(xSet []int, tx int, eofBits int) *errmodel.Script {
	return errmodel.NewScript(
		errmodel.AtEOFBit(xSet, eofBits-1, 1),
		errmodel.AtEOFBit([]int{tx}, eofBits, 1),
	)
}

// The paper, Section 4: in the new inconsistency scenarios RELCAN and
// TOTCAN do not work — "they only perform recovery actions in case the
// transmitter fails, and inconsistencies can appear even if the
// transmitter does not fail". Only EDCAN operates properly.
func TestNewScenarioPerProtocol(t *testing.T) {
	xSet := []int{1, 2}
	tests := []struct {
		proto         Protocol
		wantAgreement bool
	}{
		{RawCAN, false},
		{RELCAN, false},
		{TOTCAN, false},
		{EDCAN, true},
	}
	for _, tt := range tests {
		t.Run(tt.proto.String(), func(t *testing.T) {
			policy := core.NewStandard()
			s := MustStack(5, policy, Options{Protocol: tt.proto})
			s.Cluster.Net.AddDisturber(fig3aDisturbance(xSet, 0, policy.EOFBits()))
			if _, err := s.Procs[0].Broadcast([]byte{0xAA}); err != nil {
				t.Fatal(err)
			}
			if !s.RunUntilQuiet(40000) {
				t.Fatal("stack did not quiesce")
			}
			r := s.Check()
			if got := r.Satisfies(abcheck.Agreement); got != tt.wantAgreement {
				t.Errorf("%s agreement = %v, want %v\n%s", tt.proto, got, tt.wantAgreement, r.Summary())
			}
			if tt.proto == EDCAN {
				// All four receivers must end up with the message.
				for i := 1; i < 5; i++ {
					if len(s.Procs[i].Delivered()) != 1 {
						t.Errorf("EDCAN: process %d delivered %d, want 1", i, len(s.Procs[i].Delivered()))
					}
				}
			}
		})
	}
}

// The old scenario (Fig. 1c, transmitter crashes before retransmission):
// RELCAN and EDCAN recover (the receivers retransmit); TOTCAN stays
// consistent by dropping the unconfirmed message everywhere.
func TestOldScenarioPerProtocol(t *testing.T) {
	xSet := []int{1, 2}
	for _, tt := range []struct {
		proto        Protocol
		wantDeliverX bool // X must eventually get the message
	}{
		{RELCAN, true},
		{EDCAN, true},
		{TOTCAN, false}, // dropped everywhere: consistent omission
	} {
		t.Run(tt.proto.String(), func(t *testing.T) {
			policy := core.NewStandard()
			s := MustStack(5, policy, Options{Protocol: tt.proto})
			s.Cluster.Net.AddDisturber(errmodel.NewScript(
				errmodel.AtEOFBit(xSet, policy.EOFBits()-1, 1),
			))
			s.Cluster.Net.AddProbe(&sim.CrashAtFirstFlag{
				Ctrl:    s.Cluster.Nodes[0],
				Station: 0,
			})
			if _, err := s.Procs[0].Broadcast([]byte{0xBB}); err != nil {
				t.Fatal(err)
			}
			if !s.RunUntilQuiet(40000) {
				t.Fatal("stack did not quiesce")
			}
			r := s.Check()
			if !r.Satisfies(abcheck.Agreement) {
				t.Errorf("%s must keep Agreement in the old scenario:\n%s", tt.proto, r.Summary())
			}
			gotX := len(s.Procs[1].Delivered()) > 0
			if gotX != tt.wantDeliverX {
				t.Errorf("%s: X delivered=%v, want %v", tt.proto, gotX, tt.wantDeliverX)
			}
		})
	}
}
