package errmodel

import (
	"math"
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

func TestRuleEOFAttempt(t *testing.T) {
	if a, ok := AtEOFBit([]int{1}, 6, 1).EOFAttempt(); !ok || a != 1 {
		t.Errorf("AtEOFBit(attempt 1): EOFAttempt = %d, %v", a, ok)
	}
	if a, ok := AtEOFBit(nil, 6, 0).EOFAttempt(); !ok || a != 0 {
		t.Errorf("AtEOFBit(any attempt): EOFAttempt = %d, %v", a, ok)
	}
	opaque := AtEOFBit([]int{1}, 6, 1)
	opaque.When = func(uint64, int, bus.ViewContext) bool { return true }
	for name, r := range map[string]*Rule{
		"AtEOFBit with a When": opaque,
		"AtPhase":              AtPhase(nil, bus.PhaseEOF, 6),
		"AtSlot":               AtSlot(nil, 3),
		"literal":              {Count: 1},
	} {
		if _, ok := r.EOFAttempt(); ok {
			t.Errorf("%s reports an EOF attempt", name)
		}
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
