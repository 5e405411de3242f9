package verify

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// flipTally counts a report's violations by (flip count, outcome).
type flipTally map[[2]int]int

func tallyViolations(rep *Report) flipTally {
	t := flipTally{}
	for _, v := range rep.Violations {
		t[[2]int{len(v.Pattern), int(v.Outcome)}]++
	}
	return t
}

func (t flipTally) at(k int, o Outcome) int { return t[[2]int{k, int(o)}] }

// The suffix memo's counters at one worker are a function of the
// pattern space and of which joint states the memo key tells apart: a
// key that merged states the simulation distinguishes would turn misses
// into hits, and one that split equal states would do the reverse.
func TestSuffixMemoCountersPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want sim.MemoStats
	}{
		{"majorcan_5 k<=3", Config{Policy: core.MustMajorCAN(5), MaxFlips: 3}, sim.MemoStats{Hits: 85383, Misses: 17, Entries: 17}},
		{"can k<=2 crash", Config{Policy: core.NewStandard(), MaxFlips: 2, CrashSweep: true}, sim.MemoStats{Hits: 2807, Misses: 523, Entries: 523}},
		{"minorcan k<=2 crash", Config{Policy: core.NewMinorCAN(), MaxFlips: 2, CrashSweep: true}, sim.MemoStats{Hits: 2876, Misses: 454, Entries: 454}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Parallelism = 1
			_, stats, err := Exhaustive(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if stats != tc.want {
				t.Errorf("memo counters %+v, want %+v", stats, tc.want)
			}
		})
	}
}

// MajorCAN_m tolerates m view flips in its decision region and no more:
// at four stations every <=3-flip pattern of MajorCAN_3 is consistent,
// and some 4-flip patterns are not (DESIGN.md §6). The per-outcome
// counts at k = 4 are pinned.
func TestMajorCAN3FourFlipsBreakIt(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive k=4 space in -short mode")
	}
	rep, _, err := Exhaustive(context.Background(), Config{
		Policy:      core.MustMajorCAN(3),
		Stations:    4,
		MaxFlips:    4,
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 396606 {
		t.Errorf("%d patterns checked, want 396606", rep.Checked)
	}
	tally := tallyViolations(rep)
	for k := 1; k <= 3; k++ {
		for o := Omission; o <= Stuck; o++ {
			if n := tally.at(k, o); n != 0 {
				t.Errorf("%d %s violations with %d flips, want none within the tolerance", n, o, k)
			}
		}
	}
	if om, dup := tally.at(4, Omission), tally.at(4, Duplicate); om != 110 || dup != 250 || len(rep.Violations) != 360 {
		t.Errorf("4 flips: %d omissions, %d duplicates, %d violations in all; want 110, 250, 360", om, dup, len(rep.Violations))
	}
}

// On standard CAN the two-flip omissions are eq. (4)'s leading term: one
// per receiver (C(N-1, 1)), the Fig. 3a pattern with the receiver's flip
// at the last-but-one EOF bit and the transmitter's at the last. The
// single-flip double receptions (Fig. 1b) are pinned beside them.
func TestStandardCANFlipTallyAcrossBusSizes(t *testing.T) {
	cases := []struct {
		stations, dup1, om2 int
	}{
		{4, 5, 3},
		{5, 6, 4},
		{6, 7, 5},
		{8, 9, 7},
	}
	for _, tc := range cases {
		rep, _, err := Exhaustive(context.Background(), Config{
			Policy:      core.NewStandard(),
			Stations:    tc.stations,
			MaxFlips:    2,
			Parallelism: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := rep.Config.positions(); p != 9 {
			t.Fatalf("%d positions, want 9", p)
		}
		tally := tallyViolations(rep)
		if om1, dup1 := tally.at(1, Omission), tally.at(1, Duplicate); om1 != 0 || dup1 != tc.dup1 {
			t.Errorf("N=%d, 1 flip: %d omissions, %d duplicates; want 0, %d", tc.stations, om1, dup1, tc.dup1)
		}
		if om2 := tally.at(2, Omission); om2 != tc.om2 {
			t.Errorf("N=%d, 2 flips: %d omissions, want N-1 = %d", tc.stations, om2, tc.om2)
		}
		for _, v := range rep.Violations {
			if v.Outcome != Omission || len(v.Pattern) != 2 {
				continue
			}
			if a, b := v.Pattern[0], v.Pattern[1]; a != (Flip{Station: 0, Pos: 7}) || b.Station == 0 || b.Pos != 6 {
				t.Errorf("N=%d: two-flip omission %s is not Fig. 3a's s0@7 sX@6", tc.stations, v)
			}
		}
	}
}
