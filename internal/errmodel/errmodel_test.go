package errmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bus"
)

func TestRandomRate(t *testing.T) {
	r := NewRandom(0.1, 1)
	n := 200000
	flips := 0
	for i := 0; i < n; i++ {
		if r.Disturb(uint64(i), 0, bus.ViewContext{}) {
			flips++
		}
	}
	got := float64(flips) / float64(n)
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("flip rate = %.4f, want ~0.1", got)
	}
	if r.Flips() != uint64(flips) {
		t.Errorf("Flips() = %d, want %d", r.Flips(), flips)
	}
}

func TestRandomZeroNeverFires(t *testing.T) {
	r := NewRandom(0, 1)
	for i := 0; i < 1000; i++ {
		if r.Disturb(uint64(i), i%5, bus.ViewContext{}) {
			t.Fatal("ber*=0 must never flip")
		}
	}
}

func TestRandomDeterministicSeed(t *testing.T) {
	a, b := NewRandom(0.5, 42), NewRandom(0.5, 42)
	for i := 0; i < 100; i++ {
		if a.Disturb(uint64(i), 0, bus.ViewContext{}) != b.Disturb(uint64(i), 0, bus.ViewContext{}) {
			t.Fatal("same seed must reproduce the same flips")
		}
	}
}

func TestForkDrawsSameStreamAsNewRandom(t *testing.T) {
	parent := NewRandom(0.5, 1)
	fork := parent.Fork(42)
	fresh := NewRandom(0.5, 42)
	for i := 0; i < 500; i++ {
		if fork.Disturb(uint64(i), 0, bus.ViewContext{}) != fresh.Disturb(uint64(i), 0, bus.ViewContext{}) {
			t.Fatalf("slot %d: Fork(42) must draw the stream of NewRandom(ber*, 42)", i)
		}
	}
}

func TestForkFlipsAggregateIntoParent(t *testing.T) {
	parent := NewRandom(0.5, 1)
	a, b := parent.Fork(2), parent.Fork(3)
	for i := 0; i < 1000; i++ {
		a.Disturb(uint64(i), 0, bus.ViewContext{})
		b.Disturb(uint64(i), 0, bus.ViewContext{})
	}
	if a.Flips() == 0 || b.Flips() == 0 {
		t.Fatal("forks at ber*=0.5 must record flips")
	}
	if got, want := parent.Flips(), a.Flips()+b.Flips(); got != want {
		t.Errorf("parent.Flips() = %d, want sum of fork flips %d", got, want)
	}
}

func TestForkFlipsReadableConcurrently(t *testing.T) {
	parent := NewRandom(0.5, 1)
	const workers = 4
	done := make(chan uint64, workers)
	for w := 0; w < workers; w++ {
		fork := parent.Fork(int64(w + 10))
		go func() {
			for i := 0; i < 5000; i++ {
				fork.Disturb(uint64(i), 0, bus.ViewContext{})
			}
			done <- fork.Flips()
		}()
	}
	// Read the lineage total while workers run; the race detector verifies
	// this is safe, the final check verifies it converges.
	var sum uint64
	for w := 0; w < workers; w++ {
		_ = parent.Flips()
		sum += <-done
	}
	if got := parent.Flips(); got != sum {
		t.Errorf("parent.Flips() = %d, want %d", got, sum)
	}
}

func TestGlobalRandomAffectsAllStations(t *testing.T) {
	g := NewGlobalRandom(0.5, 7)
	for slot := uint64(0); slot < 200; slot++ {
		first := g.Disturb(slot, 0, bus.ViewContext{})
		for s := 1; s < 5; s++ {
			if g.Disturb(slot, s, bus.ViewContext{}) != first {
				t.Fatalf("slot %d: stations disagree under the global model", slot)
			}
		}
	}
	if g.Flips() == 0 {
		t.Error("expected some flips at ber=0.5")
	}
}

func TestRuleStationFilter(t *testing.T) {
	r := &Rule{Stations: []int{2, 4}}
	s := NewScript(r)
	if s.Disturb(0, 1, bus.ViewContext{}) {
		t.Error("station 1 must not match")
	}
	if !s.Disturb(0, 2, bus.ViewContext{}) || !s.Disturb(1, 4, bus.ViewContext{}) {
		t.Error("stations 2 and 4 must match")
	}
}

func TestRuleCountLimitPerStation(t *testing.T) {
	r := &Rule{Count: 2}
	s := NewScript(r)
	fired := 0
	disturb := func(slot uint64, station int) bool {
		if s.Disturb(slot, station, bus.ViewContext{}) {
			fired++
			return true
		}
		return false
	}
	for i := 0; i < 2; i++ {
		if !disturb(uint64(i), 0) {
			t.Fatalf("fire %d must match", i)
		}
	}
	if disturb(2, 0) {
		t.Error("third fire on station 0 must not match")
	}
	if !disturb(3, 1) {
		t.Error("the limit is per station; station 1 must still fire")
	}
	if fired != 3 {
		t.Errorf("firings = %d, want 3", fired)
	}
}

func TestAtEOFBitRule(t *testing.T) {
	s := NewScript(AtEOFBit([]int{1}, 6, 1))
	mk := func(rel, attempts int) bus.ViewContext {
		return bus.ViewContext{EOFRel: rel, Attempts: attempts}
	}
	if s.Disturb(0, 1, mk(5, 1)) {
		t.Error("wrong position must not fire")
	}
	if s.Disturb(0, 1, mk(6, 2)) {
		t.Error("wrong attempt must not fire")
	}
	if s.Disturb(0, 0, mk(6, 1)) {
		t.Error("wrong station must not fire")
	}
	if !s.Disturb(0, 1, mk(6, 1)) {
		t.Error("exact match must fire")
	}
	if s.Disturb(1, 1, mk(6, 1)) {
		t.Error("single-shot rule must not fire twice")
	}
}

// BoundTo is the memo's eligibility query: only a script whose every
// flip is a table flip of the given attempt qualifies.
func TestScriptBoundTo(t *testing.T) {
	if !NewScript(AtEOFBit([]int{1}, 6, 1)).BoundTo(1) {
		t.Error("AtEOFBit(attempt 1) must be bound to attempt 1")
	}
	if !NewScript().FlipEOF(2, 3, 1).BoundTo(1) || !NewScript().BoundTo(1) {
		t.Error("FlipEOF(attempt 1) and the empty script must be bound to attempt 1")
	}
	opaque := AtEOFBit([]int{1}, 6, 1)
	opaque.When = func(uint64, int, bus.ViewContext) bool { return true }
	for name, r := range map[string]*Rule{
		"AtEOFBit(any attempt)":   AtEOFBit([]int{1}, 6, 0),
		"AtEOFBit(every station)": AtEOFBit(nil, 6, 1),
		"AtEOFBit(attempt 2)":     AtEOFBit([]int{1}, 6, 2),
		"AtEOFBit with a When":    opaque,
		"AtEOFBit beyond width":   AtEOFBit([]int{1}, 65, 1),
		"AtPhase":                 AtPhase(nil, bus.PhaseEOF, 6),
		"AtSlot":                  AtSlot(nil, 3),
		"literal":                 {Count: 1},
	} {
		if NewScript(AtEOFBit([]int{0}, 2, 1), r).BoundTo(1) {
			t.Errorf("a script with %s reports itself bound to attempt 1", name)
		}
	}
	s := NewScript(AtSlot(nil, 3)).FlipEOF(0, 2, 2)
	if s.TableOnly() {
		t.Error("a script with an AtSlot rule reports itself table-only")
	}
	if s.Reset(); !s.TableOnly() || !s.FlipEOF(0, 2, 1).BoundTo(1) {
		t.Error("a reset script must forget its rules and flips")
	}
}

// The flip table fires exactly where the rules it replaces fire: a rule
// given an always-true When condition keeps Rule's own matching, so the
// two scripts are run side by side over random views (positions beyond
// the table's width, attempt 0, nil Stations, repeated and overlapping
// flips) and must agree on every sample.
func TestFlipTableMatchesRules(t *testing.T) {
	always := func(uint64, int, bus.ViewContext) bool { return true }
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		table, rules := NewScript(), NewScript()
		for i := rng.Intn(6); i >= 0; i-- {
			var stations []int
			if rng.Intn(4) > 0 {
				stations = []int{rng.Intn(5), rng.Intn(5)}[:1+rng.Intn(2)]
			}
			rel, attempt := 1+rng.Intn(70), rng.Intn(3)
			table.Add(AtEOFBit(stations, rel, attempt))
			r := AtEOFBit(stations, rel, attempt)
			r.When = always
			rules.Add(r)
		}
		for i := 0; i < 400; i++ {
			station := rng.Intn(5)
			view := bus.ViewContext{EOFRel: rng.Intn(70), Attempts: rng.Intn(3)}
			if got, want := table.Disturb(uint64(i), station, view), rules.Disturb(uint64(i), station, view); got != want {
				t.Fatalf("trial %d sample %d (station %d, %+v): table %v, rules %v", trial, i, station, view, got, want)
			}
		}
	}
}

// Reset keeps the table's rows: refilling a warm script allocates
// nothing.
func TestScriptResetReusesTable(t *testing.T) {
	s := NewScript().FlipEOF(3, 5, 1)
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.FlipEOF(0, 7, 1).FlipEOF(3, 2, 1)
		if !s.FireEOF(3, 2, 1) || s.FireEOF(3, 2, 1) || s.FireEOF(0, 7, 2) {
			t.Fatal("table flips must fire once, at their own attempt")
		}
	})
	if allocs != 0 {
		t.Errorf("Reset and refill allocate %g times, want 0", allocs)
	}
}

func TestAtEOFBitsBuildsOneRulePerPosition(t *testing.T) {
	rules := AtEOFBits([]int{0}, []int{3, 4, 5}, 1)
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	s := NewScript(rules...)
	for _, rel := range []int{3, 4, 5} {
		if !s.Disturb(0, 0, bus.ViewContext{EOFRel: rel, Attempts: 1}) {
			t.Errorf("position %d must fire", rel)
		}
	}
}

func TestAtSlotRule(t *testing.T) {
	s := NewScript(AtSlot([]int{0}, 17))
	if s.Disturb(16, 0, bus.ViewContext{}) || !s.Disturb(17, 0, bus.ViewContext{}) {
		t.Error("AtSlot must fire exactly at its slot")
	}
}

func TestAtPhaseRule(t *testing.T) {
	s := NewScript(AtPhase([]int{0}, bus.PhaseSampling, 13))
	if s.Disturb(0, 0, bus.ViewContext{Phase: bus.PhaseEOF, EOFRel: 13}) {
		t.Error("wrong phase must not fire")
	}
	if !s.Disturb(0, 0, bus.ViewContext{Phase: bus.PhaseSampling, EOFRel: 13}) {
		t.Error("matching phase and position must fire")
	}
}
