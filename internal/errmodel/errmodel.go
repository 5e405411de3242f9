// Package errmodel implements the disturbance models of the MajorCAN
// paper: the spatially distributed random bit-error model based on
// Charzinski's p_eff (ber* = ber/N) and deterministic scripted disturbances
// used to reproduce the paper's figure scenarios.
//
// A disturbance flips one station's view of one bus bit; it never changes
// the bus itself, matching the paper's per-node error effectivity model.
package errmodel

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
)

// Random is a bus.Disturber that flips each (slot, station) sample
// independently with probability BerStar, the per-node bit error rate
// ber* = ber/N of the paper (expression 3).
//
// A Random must be driven from a single goroutine (one bus.Network), like
// the network itself; there is no per-sample locking. For parallel sweeps,
// Fork derives an independent per-worker disturber whose flips also
// accumulate into this instance's counter, so Flips on the parent reports
// the lineage-wide total and can be read concurrently while workers run.
//
// CleanAhead may draw ahead of consumption; the draws it sees are
// buffered and handed out by Sample and SkipClean in stream order, and a
// flip is counted when it is consumed, not when it is drawn. The
// logical stream and the counters therefore match a draw-per-Sample run
// after every consumed draw.
type Random struct {
	rng     *rand.Rand
	berStar float64
	flips   atomic.Uint64
	parent  *Random

	// The lookahead buffer: clean draws already taken from rng, then,
	// when fire is set, one firing draw after them.
	clean int
	fire  bool
}

var _ bus.Disturber = (*Random)(nil)

// NewRandom creates a random disturber with the given per-node bit error
// probability and deterministic seed.
func NewRandom(berStar float64, seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed)), berStar: berStar}
}

// Fork returns an independent disturber with the same error rate and its
// own deterministic stream, for per-worker use in parallel sweeps. A fork
// seeded with s draws the same stream as NewRandom(berStar, s). Flips
// injected by the fork count towards both the fork's and every ancestor's
// counter.
func (r *Random) Fork(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed)), berStar: r.berStar, parent: r}
}

// Disturb implements bus.Disturber.
func (r *Random) Disturb(_ uint64, _ int, _ bus.ViewContext) bool {
	return r.Sample()
}

// Sample consumes the next flip decision of the disturber's stream
// (from the lookahead buffer first, then from the RNG) and counts it in
// the flip counters when it fires, exactly as one Disturb call would. It
// is the draw primitive the fast bit-slot engine replicates the
// reference Disturb-call pattern with: one Sample per (slot, station) in
// ascending station order yields a bit-identical stream.
func (r *Random) Sample() bool {
	switch {
	case r.clean > 0:
		r.clean--
		return false
	case r.fire:
		r.fire = false
	case r.rng.Float64() >= r.berStar:
		return false
	}
	for p := r; p != nil; p = p.parent {
		p.flips.Add(1)
	}
	return true
}

// CleanAhead reports how many of the next draws, up to limit, are clean:
// it draws from the RNG, exactly as Sample would, until it sees a firing
// draw or holds limit clean ones, and buffers what it saw for Sample and
// SkipClean to consume. It is the fast engine's next-disturbance
// lookahead for the ungated model: the slots those clean draws cover
// are disturbance-free.
func (r *Random) CleanAhead(limit int) int {
	for r.clean < limit && !r.fire {
		if r.rng.Float64() < r.berStar {
			r.fire = true
		} else {
			r.clean++
		}
	}
	return min(r.clean, limit)
}

// SkipClean consumes k buffered clean draws, as k Sample calls would;
// k must not exceed what CleanAhead last reported.
func (r *Random) SkipClean(k int) {
	if k > r.clean {
		panic("errmodel: SkipClean past the clean lookahead")
	}
	r.clean -= k
}

// AlwaysClean reports that the disturber can never fire: its rate is
// zero, so skipping its draws entirely is observationally equivalent
// (nothing reads the RNG stream position, and the flip counter stays
// zero either way). The fast engine uses this as its next-disturbance
// lookahead for rate-zero models: the answer is "never".
func (r *Random) AlwaysClean() bool { return r.berStar <= 0 }

// Flips returns the number of bit flips injected so far (firing draws
// consumed, not merely looked ahead) by this disturber and all
// disturbers forked from it. It is safe to call concurrently with forks
// running on other goroutines.
func (r *Random) Flips() uint64 {
	return r.flips.Load()
}

// FlipCounter is implemented by disturbers that count injected flips.
type FlipCounter interface {
	Flips() uint64
}

// GlobalRandom models the alternative "global ber" interpretation in which
// an error affects every station's view of the same bit simultaneously
// (the whole-bus corruption model). It exists for the error-model ablation
// bench; the paper argues the spatial model is the right one.
type GlobalRandom struct {
	mu    sync.Mutex
	rng   *rand.Rand
	ber   float64
	slot  uint64
	flip  bool
	flips uint64
}

var _ bus.Disturber = (*GlobalRandom)(nil)

// NewGlobalRandom creates a global disturber flipping all views of a bit
// with probability ber.
func NewGlobalRandom(ber float64, seed int64) *GlobalRandom {
	return &GlobalRandom{rng: rand.New(rand.NewSource(seed)), ber: ber, slot: ^uint64(0)}
}

// Disturb implements bus.Disturber: one draw per slot, applied to every
// station.
func (g *GlobalRandom) Disturb(slot uint64, _ int, _ bus.ViewContext) bool {
	return g.SampleSlot(slot)
}

// SampleSlot draws (or returns the cached) flip decision for the given
// slot, advancing the RNG and flip counter exactly as the first Disturb
// call of that slot would. Repeated calls for the same slot are
// idempotent, matching the per-station Disturb fan-out of the reference
// step loop; the fast engine calls it directly.
func (g *GlobalRandom) SampleSlot(slot uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if slot != g.slot {
		g.slot = slot
		g.flip = g.rng.Float64() < g.ber
		if g.flip {
			g.flips++
		}
	}
	return g.flip
}

// AlwaysClean reports a zero-rate model, as for Random.AlwaysClean.
func (g *GlobalRandom) AlwaysClean() bool { return g.ber <= 0 }

// Flips returns the number of disturbed slots so far.
func (g *GlobalRandom) Flips() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flips
}

// EOFOnly gates a disturber on the end-of-frame region: the inner model
// is consulted — and its RNG stream advanced — only when the station's
// view places it inside an EOF episode (view.EOFRel != 0). All the
// paper's inconsistency scenarios live in that region, so confining
// errors to it makes them observable at feasible sample sizes. No
// likelihood weight is kept: rates measured under the gate are per
// gated frame, conditioned on a clean frame outside the region. The
// gate doubles as the fast engine's next-disturbance lookahead: while
// no station is in an EOF episode, a gated model can neither fire nor
// consume randomness, so those slots are provably disturbance-free and
// may be fast-forwarded. Inside episodes the fast engine bounds a gated
// Random by its lookahead (CleanAhead), at one draw per in-episode
// station per slot.
type EOFOnly struct {
	// Inner is the gated disturbance model.
	Inner bus.Disturber
}

var _ bus.Disturber = EOFOnly{}

// Disturb implements bus.Disturber.
func (e EOFOnly) Disturb(slot uint64, station int, view bus.ViewContext) bool {
	if view.EOFRel == 0 {
		return false
	}
	return e.Inner.Disturb(slot, station, view)
}

// Rule is one scripted disturbance: it fires for the stations in Stations
// (nil means every station) whenever When matches, at most Count times per
// station (Count <= 0 means unlimited).
type Rule struct {
	// Stations restricts the rule to the listed station indices; nil means
	// all stations.
	Stations []int
	// When matches the station's protocol position; nil matches always.
	When func(slot uint64, station int, view bus.ViewContext) bool
	// Count limits how many times the rule fires per station (<= 0 for
	// unlimited).
	Count int

	// AtEOFBit's condition, kept as data instead of a When closure so
	// Script.Add can compile the rule into its flip table.
	eof        bool
	eofRel     int
	eofAttempt int

	fired []int // firings so far, indexed by station
}

func (r *Rule) matches(slot uint64, station int, view bus.ViewContext) bool {
	if r.Stations != nil {
		found := false
		for _, s := range r.Stations {
			if s == station {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if r.eof && (view.EOFRel != r.eofRel || r.eofAttempt != 0 && view.Attempts != r.eofAttempt) {
		return false
	}
	if r.When != nil && !r.When(slot, station, view) {
		return false
	}
	if r.Count > 0 {
		if station >= len(r.fired) {
			r.fired = append(r.fired, make([]int, station+1-len(r.fired))...)
		}
		if r.fired[station] >= r.Count {
			return false
		}
		r.fired[station]++
	}
	return true
}

// Script is a deterministic bus.Disturber built from rules. A sample is
// flipped when at least one rule fires.
//
// Single-shot flips of one station's view at one EOF bit — FlipEOF, and
// AtEOFBit rules naming their stations — are kept as data, not as rules:
// a flip table holds, per station and transmission attempt (0 for any
// attempt), a bitmask of the EOF positions still to flip (bit rel-1 for
// position rel). A firing clears its bit, so each flip fires once, as
// the rule would. A script whose flips are all in the table runs on the
// fast bit-slot engine's packed core (FireEOF); any other rule is
// matched per sample and keeps the engine on its reference loop.
type Script struct {
	rules []*Rule
	eof   [][tableAttempts]uint64 // eof[station][attempt]: the flip table
}

// The flip table's bounds; a flip beyond them stays a rule.
const (
	// tableWidth is the last EOF position a table row holds.
	tableWidth = 64
	// tableAttempts bounds the attempt numbers a table row holds.
	tableAttempts = 16
)

var _ bus.Disturber = (*Script)(nil)

// NewScript creates a script from the given rules.
func NewScript(rules ...*Rule) *Script {
	s := &Script{}
	for _, r := range rules {
		s.Add(r)
	}
	return s
}

// Add appends a rule to the script. An AtEOFBit rule that names its
// stations, is still single-shot and has no When condition goes into the
// flip table instead, one flip per station: the table copies the rule's
// condition, so changing the rule after Add changes nothing, and its
// firings do not count on the rule.
func (s *Script) Add(r *Rule) *Script {
	if !r.eof || r.Stations == nil || r.When != nil || r.Count != 1 || !inTable(r.eofRel, r.eofAttempt) {
		s.rules = append(s.rules, r)
		return s
	}
	for _, st := range r.Stations {
		s.FlipEOF(st, r.eofRel, r.eofAttempt)
	}
	return s
}

// FlipEOF adds one single-shot flip: station's view flips at the 1-based
// EOF-relative position rel of transmission attempt number attempt (0
// for any attempt), exactly as Add(AtEOFBit([]int{station}, rel,
// attempt)) would. Inside the table's bounds it builds no rule.
func (s *Script) FlipEOF(station, rel, attempt int) *Script {
	if station < 0 || !inTable(rel, attempt) {
		s.rules = append(s.rules, AtEOFBit([]int{station}, rel, attempt))
		return s
	}
	if station >= len(s.eof) {
		s.eof = append(s.eof, make([][tableAttempts]uint64, station+1-len(s.eof))...)
	}
	s.eof[station][attempt] |= 1 << uint(rel-1)
	return s
}

// inTable reports whether a flip at EOF position rel of attempt fits the
// flip table.
func inTable(rel, attempt int) bool {
	return rel >= 1 && rel <= tableWidth && attempt >= 0 && attempt < tableAttempts
}

// Reset empties the script, its rules and its flip table, keeping the
// table's storage: a script refilled run after run allocates nothing
// once it has held a flip of its highest station.
func (s *Script) Reset() {
	clear(s.rules)
	s.rules = s.rules[:0]
	clear(s.eof)
}

// FireEOF consumes the table's flip of station's view at EOF-relative
// position rel of transmission attempt attempt, if one is pending, and
// reports whether it fired. It is the table's half of Disturb; the fast
// engine calls it with the station's EOFRel and Attempts.
func (s *Script) FireEOF(station, rel, attempt int) bool {
	if station >= len(s.eof) || rel < 1 || rel > tableWidth {
		return false
	}
	row, bit := &s.eof[station], uint64(1)<<uint(rel-1)
	hit := row[0] & bit
	row[0] &^= bit
	if attempt > 0 && attempt < tableAttempts {
		hit |= row[attempt] & bit
		row[attempt] &^= bit
	}
	return hit != 0
}

// TableOnly reports whether every flip of the script is in its flip
// table: it holds no rule that Disturb matches per sample.
func (s *Script) TableOnly() bool { return len(s.rules) == 0 }

// BoundTo reports whether the script can fire only inside end-of-frame
// episodes of transmission attempt attempt: every pending flip is in the
// table and bound to that attempt. Once every station has left that
// attempt's episode, such a script never fires again.
func (s *Script) BoundTo(attempt int) bool {
	if len(s.rules) > 0 {
		return false
	}
	for i := range s.eof {
		for a, mask := range s.eof[i] {
			if mask != 0 && a != attempt {
				return false
			}
		}
	}
	return true
}

// Disturb implements bus.Disturber.
func (s *Script) Disturb(slot uint64, station int, view bus.ViewContext) bool {
	fired := s.FireEOF(station, view.EOFRel, view.Attempts)
	for _, r := range s.rules {
		if r.matches(slot, station, view) {
			fired = true
		}
	}
	return fired
}

// AtEOFBit builds a rule that flips the view of the given stations at the
// 1-based EOF-relative bit position rel of transmission attempt number
// attempt (1-based; 0 matches any attempt). This is the vocabulary the
// paper's figures use: "a disturbance corrupts the last but one bit of the
// EOF of the nodes belonging to X" becomes AtEOFBit(x, eofBits-1, 1).
func AtEOFBit(stations []int, rel int, attempt int) *Rule {
	return &Rule{Stations: stations, Count: 1, eof: true, eofRel: rel, eofAttempt: attempt}
}

// AtEOFBits builds one single-shot rule per EOF-relative position so a
// station can be disturbed at several positions of the same frame.
func AtEOFBits(stations []int, rels []int, attempt int) []*Rule {
	rules := make([]*Rule, 0, len(rels))
	for _, rel := range rels {
		rules = append(rules, AtEOFBit(stations, rel, attempt))
	}
	return rules
}

// AtSlot builds a rule that flips the view of the given stations at an
// absolute bit slot.
func AtSlot(stations []int, slot uint64) *Rule {
	return &Rule{
		Stations: stations,
		When: func(s uint64, _ int, _ bus.ViewContext) bool {
			return s == slot
		},
	}
}

// AtPhase builds a single-shot rule matching a protocol phase with the
// given 1-based EOF-relative position (0 to ignore the position).
func AtPhase(stations []int, phase bus.Phase, rel int) *Rule {
	return &Rule{
		Stations: stations,
		Count:    1,
		When: func(_ uint64, _ int, v bus.ViewContext) bool {
			if v.Phase != phase {
				return false
			}
			return rel == 0 || v.EOFRel == rel
		},
	}
}
