package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPolicyParameters(t *testing.T) {
	std := core.NewStandard()
	if std.Name() != "CAN" || std.EOFBits() != 7 || std.DelimiterBits() != 8 {
		t.Errorf("standard CAN parameters wrong: %s %d %d", std.Name(), std.EOFBits(), std.DelimiterBits())
	}
	minor := core.NewMinorCAN()
	if minor.Name() != "MinorCAN" || minor.EOFBits() != 7 || minor.DelimiterBits() != 8 {
		t.Errorf("MinorCAN parameters wrong: %s %d %d", minor.Name(), minor.EOFBits(), minor.DelimiterBits())
	}
	major := core.MustMajorCAN(5)
	if major.Name() != "MajorCAN_5" {
		t.Errorf("name = %q", major.Name())
	}
	if major.EOFBits() != 10 {
		t.Errorf("EOFBits = %d, want 2m = 10", major.EOFBits())
	}
	if major.DelimiterBits() != 11 {
		t.Errorf("DelimiterBits = %d, want 2m+1 = 11", major.DelimiterBits())
	}
	if major.EndPos() != 20 {
		t.Errorf("EndPos = %d, want 3m+5 = 20", major.EndPos())
	}
	if major.WindowStart() != 12 {
		t.Errorf("WindowStart = %d, want m+7 = 12", major.WindowStart())
	}
}

// The paper's overhead claims (Sections 5 and 6): best case 2m-7 bits
// (3 bits for m=5), worst case 4m-9 bits (11 bits for m=5).
func TestOverheadFormulas(t *testing.T) {
	tests := []struct {
		m          int
		best, wrst int
	}{
		{3, -1, 3}, // MajorCAN_3 is SHORTER than CAN in the error-free case
		{4, 1, 7},
		{5, 3, 11}, // the paper's proposal
		{6, 5, 15},
		{8, 9, 23},
	}
	for _, tt := range tests {
		p := core.MustMajorCAN(tt.m)
		if got := p.BestCaseOverhead(); got != tt.best {
			t.Errorf("m=%d best-case overhead = %d, want %d", tt.m, got, tt.best)
		}
		if got := p.WorstCaseOverhead(); got != tt.wrst {
			t.Errorf("m=%d worst-case overhead = %d, want %d", tt.m, got, tt.wrst)
		}
		// The worst case adds 2m-2 bits on top of the best case.
		if got := p.WorstCaseOverhead() - p.BestCaseOverhead(); got != 2*tt.m-2 {
			t.Errorf("m=%d extension = %d, want 2m-2 = %d", tt.m, got, 2*tt.m-2)
		}
	}
}

func TestMajorCANValidation(t *testing.T) {
	for _, m := range []int{-1, 0, 1, 2} {
		if _, err := core.NewMajorCAN(m); err == nil {
			t.Errorf("m=%d must be rejected (the paper requires m > 2)", m)
		}
	}
	if _, err := core.NewMajorCAN(3); err != nil {
		t.Errorf("m=3 must be accepted: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustMajorCAN(2) must panic")
		}
	}()
	core.MustMajorCAN(2)
}

func TestMajorCANNameEncodesM(t *testing.T) {
	for _, m := range []int{3, 5, 12} {
		name := core.MustMajorCAN(m).Name()
		if !strings.HasPrefix(name, "MajorCAN_") {
			t.Errorf("name %q", name)
		}
	}
}

// TestParsePolicyGrammar pins the accepted protocol names: exactly
// can|standard|minorcan|majorcan|majorcan_<m>. Anything else — in
// particular a majorcan-prefixed name without a well-formed _<m> — is
// rejected rather than silently read as the default MajorCAN_5.
func TestParsePolicyGrammar(t *testing.T) {
	for _, tt := range []struct {
		name, want string
	}{
		{"can", "CAN"},
		{"standard", "CAN"},
		{" CAN ", "CAN"},
		{"minorcan", "MinorCAN"},
		{"majorcan", "MajorCAN_5"},
		{"MajorCAN_5", "MajorCAN_5"},
		{"majorcan_3", "MajorCAN_3"},
		{"majorcan_12", "MajorCAN_12"},
	} {
		p, err := core.ParsePolicy(tt.name)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tt.name, err)
			continue
		}
		if p.Name() != tt.want {
			t.Errorf("ParsePolicy(%q) = %s, want %s", tt.name, p.Name(), tt.want)
		}
	}
	for _, name := range []string{
		"majorcan-3", "majorcanx", "majorcan5", "majorcanx_5", "majorcan_", "majorcan_x",
		"majorcan_+5", "majorcan_05", "majorcan_5_", "majorcan_ 5", "majorcan_2",
		"minorcan_5", "can_5", "cans", "", "warpdrive",
	} {
		if p, err := core.ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) accepted as %s, want an error", name, p.Name())
		}
	}
}
