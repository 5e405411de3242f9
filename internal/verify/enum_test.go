package verify

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// dfs lists the patterns of 1..k flips over n sites in the pre-order the
// enumeration is defined by: the literal recursive walk the unranking
// replaces.
func dfs(n, k int) [][]int {
	var out [][]int
	var p []int
	var walk func(start, remaining int)
	walk = func(start, remaining int) {
		if len(p) > 0 {
			out = append(out, append([]int(nil), p...))
		}
		if remaining == 0 {
			return
		}
		for i := start; i < n; i++ {
			p = append(p, i)
			walk(i+1, remaining-1)
			p = p[:len(p)-1]
		}
	}
	walk(0, k)
	return out
}

// On 3 stations x 4 positions, for every k up to the number of sites, the
// pattern at every index — reached by unranking and by stepping from
// index 0 — is the DFS pre-order pattern, and the space is its length.
func TestUnrankMatchesDFS(t *testing.T) {
	const n = 3 * 4
	for k := 1; k <= n; k++ {
		want := dfs(n, k)
		space, ok := patternSpace(n, k)
		if !ok || space != len(want) {
			t.Fatalf("k=%d: patternSpace = %d (ok %v), DFS has %d", k, space, ok, len(want))
		}
		var stepped []int
		for i, w := range want {
			if got := unrank(nil, n, k, i); !reflect.DeepEqual(got, w) {
				t.Fatalf("k=%d: unrank(%d) = %v, DFS %v", k, i, got, w)
			}
			if i == 0 {
				stepped = unrank(nil, n, k, 0)
			} else {
				var more bool
				if stepped, more = next(stepped, n, k); !more {
					t.Fatalf("k=%d: next ended at index %d of %d", k, i, len(want))
				}
			}
			if !reflect.DeepEqual(stepped, w) {
				t.Fatalf("k=%d: stepped to %v at index %d, DFS %v", k, stepped, i, w)
			}
		}
		if _, more := next(stepped, n, k); more {
			t.Fatalf("k=%d: next continues past the last pattern", k)
		}
	}
}

// The checked binomial agrees with the known values and refuses exactly
// the results that do not fit in an int64.
func TestBinomialChecked(t *testing.T) {
	for _, c := range []struct {
		n, k, want int
		ok         bool
	}{
		{80, 5, 24_040_016, true},
		{80, 0, 1, true},
		{80, 81, 0, true},
		{66, 33, 7_219_428_434_016_265_740, true},
		{67, 33, 0, false},
		{80, 30, 0, false},
		{80, 20, 3_535_316_142_212_174_320, true},
	} {
		got, ok := binomial(c.n, c.k)
		if got != c.want || ok != c.ok {
			t.Errorf("C(%d,%d) = %d (ok %v), want %d (ok %v)", c.n, c.k, got, ok, c.want, c.ok)
		}
	}
	// The MajorCAN_5 envelope: 4 stations x 20 positions, k <= 5.
	if space, ok := patternSpace(80, 5); !ok || space != 25_706_996 {
		t.Errorf("envelope space = %d (ok %v), want 25706996", space, ok)
	}
	// k <= 20 fits (an unchecked product wrapped it to 3.3e17); k <= 30 is
	// of the order of 1e22 and must be refused rather than wrapped into a
	// smaller number.
	if space, ok := patternSpace(80, 20); !ok || space != 5_186_630_185_012_672_371 {
		t.Errorf("k<=20 space = %d (ok %v)", space, ok)
	}
	if space, ok := patternSpace(80, 30); ok {
		t.Errorf("k<=30 space reported as %d; it does not fit in an int", space)
	}
}

// Any split of [0, space) into windows — uneven ones, single patterns, and
// a start past the end — concatenates to the whole run's Checked,
// PatternsBy and violations, at every worker count.
func TestWindowsConcatenate(t *testing.T) {
	cfg := Config{Policy: core.NewStandard(), Stations: 4, MaxFlips: 2, CrashSweep: true}
	whole, err := Exhaustive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, err := cfg.PatternSpace()
	if err != nil {
		t.Fatal(err)
	}
	if whole.Checked != space {
		t.Fatalf("whole run checked %d of %d", whole.Checked, space)
	}
	for _, cuts := range [][]int{
		{0, 1, 2, 300, space - 1, space},
		{0, 37, 38, 500, space},
		{0, space / 2, space, space + 10},
	} {
		for _, par := range []int{1, 3} {
			got := &Report{PatternsBy: make([]int, cfg.MaxFlips+1)}
			for i := 0; i+1 < len(cuts); i++ {
				w := cfg
				w.Parallelism = par
				w.PatternStart, w.PatternCount = cuts[i], cuts[i+1]-cuts[i]
				rep, err := Exhaustive(w)
				if err != nil {
					t.Fatal(err)
				}
				got.Checked += rep.Checked
				for k, n := range rep.PatternsBy {
					got.PatternsBy[k] += n
				}
				got.Violations = append(got.Violations, rep.Violations...)
			}
			if got.Checked != whole.Checked || !reflect.DeepEqual(got.PatternsBy, whole.PatternsBy) {
				t.Errorf("cuts %v par %d: checked %d by %v, whole %d by %v", cuts, par, got.Checked, got.PatternsBy, whole.Checked, whole.PatternsBy)
			}
			if !reflect.DeepEqual(got.Violations, whole.Violations) {
				t.Errorf("cuts %v par %d: %d violations, whole run %d (or a different order)", cuts, par, len(got.Violations), len(whole.Violations))
			}
		}
	}
}

// A window whose end overflows int is clamped to the space: it checks
// every pattern from its start on, exactly like the open-ended window,
// instead of wrapping to an empty window that reports "consistent".
func TestOverflowingWindowClamps(t *testing.T) {
	open := Spec{Protocol: "can", PatternStart: 5}
	wrapped := Spec{Protocol: "can", PatternStart: 5, PatternCount: math.MaxInt64}
	space, err := wrapped.PatternSpace()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSpec(context.Background(), open, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpec(context.Background(), wrapped, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checked != space-5 || want.Checked != space-5 {
		t.Fatalf("checked %d (open-ended window %d), want %d", got.Checked, want.Checked, space-5)
	}
	if got.Consistent || !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("wrapped window: consistent=%v, %d violations; open-ended window: %d", got.Consistent, len(got.Violations), len(want.Violations))
	}
}
