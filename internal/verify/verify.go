// Package verify exhaustively checks the consistency of a protocol
// variant against every disturbance pattern with up to k view flips in the
// end-of-frame decision region — a bounded model-checking pass over the
// bit-level simulator.
//
// The paper leaves formal verification of MajorCAN as future work ("We
// plan to do model checking on the VHDL description"); this package is
// that check for the simulated controller: for small k it enumerates the
// complete fault space instead of sampling it.
package verify

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/sim"
)

// Flip identifies one disturbed view bit: station's view flipped at the
// 1-based EOF-relative position (first transmission attempt).
type Flip struct {
	Station int
	Pos     int
}

func (f Flip) String() string { return fmt.Sprintf("s%d@%d", f.Station, f.Pos) }

// Pattern is a set of flips applied to one frame transmission.
type Pattern []Flip

// Rules scripts the pattern: one single-shot view flip per Flip, on the
// first transmission attempt.
func (p Pattern) Rules() []*errmodel.Rule {
	rules := make([]*errmodel.Rule, len(p))
	for i, f := range p {
		rules[i] = errmodel.AtEOFBit([]int{f.Station}, f.Pos, 1)
	}
	return rules
}

func (p Pattern) String() string {
	parts := make([]string, len(p))
	for i, f := range p {
		parts[i] = f.String()
	}
	return strings.Join(parts, " ")
}

// Outcome classifies one pattern's result.
type Outcome uint8

const (
	// Consistent: every receiver delivered exactly once and the
	// transmitter agreed.
	Consistent Outcome = iota + 1
	// Omission: some correct receiver never delivered while another did
	// (or the transmitter believes success while some receiver lacks the
	// frame).
	Omission
	// Duplicate: some receiver delivered more than once.
	Duplicate
	// LostAll: nobody delivered although the transmitter is alive (it
	// should still be retrying — only possible if the run was truncated).
	LostAll
	// Stuck: the bus did not quiesce within the slot budget.
	Stuck
)

func (o Outcome) String() string {
	switch o {
	case Consistent:
		return "consistent"
	case Omission:
		return "omission"
	case Duplicate:
		return "duplicate"
	case LostAll:
		return "lost-all"
	case Stuck:
		return "stuck"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Violation pairs a pattern with its non-consistent outcome.
type Violation struct {
	Pattern Pattern
	Outcome Outcome
	// Deliveries per station (station 0 is the transmitter).
	Deliveries []int
	// Crashed is the station crashed during the run, or -1.
	Crashed int
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s -> %s %v", v.Pattern, v.Outcome, v.Deliveries)
	if v.Crashed >= 0 {
		s += fmt.Sprintf(" (station %d crashed at its flag)", v.Crashed)
	}
	return s
}

// Config parameterises an exhaustive run.
type Config struct {
	// Policy is the protocol variant under verification.
	Policy node.EOFPolicy
	// Stations is the bus size (station 0 transmits). Default 4.
	Stations int
	// MaxFlips bounds the pattern size k. Patterns of every size 1..k are
	// enumerated.
	MaxFlips int
	// Positions is the number of EOF-relative positions to disturb,
	// starting at 1. Zero selects the policy's full decision region
	// (3m+5 for MajorCAN_m, EOF+2 intermission bits otherwise).
	Positions int
	// SlotsBudget bounds each simulation (default 6000).
	SlotsBudget int
	// CrashSweep additionally repeats every pattern once per station,
	// crashing that station the moment it first signals in the
	// end-of-frame region (error flag or MajorCAN extension) — the
	// fail-silent faults of the paper's model combined with the bit
	// errors. Consistency is then judged among the remaining correct
	// nodes.
	CrashSweep bool
	// PatternStart / PatternCount select a contiguous slice of the
	// pattern enumeration: patterns are indexed 0..PatternSpace-1 in the
	// DFS pre-order the walk emits them, and only indices in
	// [PatternStart, PatternStart+PatternCount) are simulated and
	// counted. PatternCount == 0 with PatternStart == 0 means the whole
	// space; PatternCount == 0 with PatternStart > 0 means "from
	// PatternStart to the end". The enumeration order is a pure function
	// of (Stations, Positions, MaxFlips), so a partition of index ranges
	// across workers checks exactly the full space once — the fleet
	// coordinator's shard contract.
	PatternStart int
	PatternCount int
	// Parallelism bounds the number of concurrent simulations. Every
	// pattern runs on its own private cluster, so the search is
	// embarrassingly parallel; values < 1 mean serial execution.
	Parallelism int
}

func (c *Config) positions() int {
	if c.Positions > 0 {
		return c.Positions
	}
	type endPoser interface{ EndPos() int }
	if ep, ok := c.Policy.(endPoser); ok {
		return ep.EndPos()
	}
	return c.Policy.EOFBits() + 2
}

// Report summarises an exhaustive verification.
type Report struct {
	Config     Config
	PatternsBy []int // patterns checked, indexed by flip count
	Checked    int
	Violations []Violation
}

// Consistent reports whether no violating pattern was found.
func (r *Report) Consistent() bool { return len(r.Violations) == 0 }

// Summary renders the report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d patterns checked (k<=%d, %d positions x %d stations): ",
		r.Config.Policy.Name(), r.Checked, r.Config.MaxFlips, r.Config.positions(), r.Config.Stations)
	if r.Consistent() {
		b.WriteString("ALL CONSISTENT")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violations", len(r.Violations))
	max := len(r.Violations)
	if max > 12 {
		max = 12
	}
	for _, v := range r.Violations[:max] {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	if len(r.Violations) > max {
		fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-max)
	}
	return b.String()
}

// Exhaustive enumerates every pattern of 1..MaxFlips flips over the
// decision region and simulates each one.
func Exhaustive(cfg Config) (*Report, error) {
	return ExhaustiveContext(context.Background(), cfg)
}

// PatternSpace returns the size of cfg's pattern enumeration — the
// number of flip combinations of size 1..MaxFlips over the
// Stations×positions fault sites, before any PatternStart/PatternCount
// windowing. The fleet coordinator uses it to partition index ranges.
func (c Config) PatternSpace() int {
	stations := c.Stations
	if stations == 0 {
		stations = 4
	}
	n := stations * c.positions()
	total := 0
	for k := 1; k <= c.MaxFlips && k <= n; k++ {
		// C(n, k) built multiplicatively; the spaces in scope here are
		// small enough that int never overflows (n tens, k single digits).
		comb := 1
		for i := 0; i < k; i++ {
			comb = comb * (n - i) / (i + 1)
		}
		total += comb
	}
	return total
}

// ExhaustiveContext is Exhaustive with cancellation: when ctx is
// cancelled the enumeration stops early and the partial report is
// returned alongside ctx's error, so a server drain or per-job timeout
// ends a long verification promptly.
func ExhaustiveContext(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Stations == 0 {
		cfg.Stations = 4
	}
	if cfg.Stations < 3 {
		return nil, fmt.Errorf("verify: need >= 3 stations, got %d", cfg.Stations)
	}
	if cfg.MaxFlips < 1 {
		return nil, fmt.Errorf("verify: MaxFlips must be >= 1")
	}
	if cfg.SlotsBudget == 0 {
		cfg.SlotsBudget = 6000
	}
	positions := cfg.positions()

	// The atomic fault sites: (station, pos) pairs.
	sites := make([]Flip, 0, cfg.Stations*positions)
	for s := 0; s < cfg.Stations; s++ {
		for p := 1; p <= positions; p++ {
			sites = append(sites, Flip{Station: s, Pos: p})
		}
	}

	rep := &Report{Config: cfg, PatternsBy: make([]int, cfg.MaxFlips+1)}
	crashes := []int{-1}
	if cfg.CrashSweep {
		for s := 0; s < cfg.Stations; s++ {
			crashes = append(crashes, s)
		}
	}

	parallelism := cfg.Parallelism
	if parallelism < 1 {
		parallelism = 1
	}
	type job struct {
		seq     int
		pattern Pattern
		crash   int
	}
	type result struct {
		seq       int
		violation Violation
		bad       bool
		err       error
	}
	jobs := make(chan job, parallelism)
	results := make(chan result, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				v, bad, err := runPattern(cfg, j.pattern, j.crash)
				results <- result{seq: j.seq, violation: v, bad: bad, err: err}
			}
		}()
	}

	// Collector: drains results while the producer enumerates patterns.
	// Violations arrive in worker-completion order; the seq tag recovers
	// the enumeration order afterwards.
	type tagged struct {
		seq int
		v   Violation
	}
	var found []tagged
	var collectErr error
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for r := range results {
			if r.err != nil && collectErr == nil {
				collectErr = r.err
			}
			if r.bad {
				found = append(found, tagged{seq: r.seq, v: r.violation})
			}
		}
	}()

	// The pattern window: indices [windowStart, windowEnd) of the DFS
	// pre-order enumeration are simulated, everything else is walked past.
	// The default window is the whole space.
	windowStart := cfg.PatternStart
	windowEnd := int(^uint(0) >> 1)
	if cfg.PatternCount > 0 {
		windowEnd = windowStart + cfg.PatternCount
	}
	idx := 0 // global pre-order pattern index, windowed or not
	pattern := make(Pattern, 0, cfg.MaxFlips)
	var walk func(start, remaining int)
	walk = func(start, remaining int) {
		if ctx.Err() != nil || idx >= windowEnd {
			return
		}
		if len(pattern) > 0 {
			if idx >= windowStart {
				rep.PatternsBy[len(pattern)]++
				rep.Checked++
				for ci, crash := range crashes {
					jobs <- job{
						seq:     idx*len(crashes) + ci,
						pattern: append(Pattern(nil), pattern...),
						crash:   crash,
					}
				}
			}
			idx++
		}
		if remaining == 0 {
			return
		}
		for i := start; i < len(sites); i++ {
			pattern = append(pattern, sites[i])
			walk(i+1, remaining-1)
			pattern = pattern[:len(pattern)-1]
		}
	}
	walk(0, cfg.MaxFlips)
	close(jobs)
	wg.Wait()
	close(results)
	<-collected
	if collectErr != nil {
		return nil, collectErr
	}
	// Enumeration order is the report's canonical violation order: a pure
	// function of the config, so a run is reproducible across worker
	// counts and a partition of pattern windows merges by concatenation.
	sort.Slice(found, func(i, j int) bool { return found[i].seq < found[j].seq })
	rep.Violations = make([]Violation, 0, len(found))
	for _, t := range found {
		rep.Violations = append(rep.Violations, t.v)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// runPattern simulates one disturbance pattern, optionally crashing one
// station at its first end-of-frame signalling, and classifies the run.
func runPattern(cfg Config, p Pattern, crash int) (Violation, bool, error) {
	f := &frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}
	cluster, quiet, deliveries, err := sim.RunFrame(cfg.Policy, cfg.Stations, f, p.Rules(), crash, nil, cfg.SlotsBudget)
	if err != nil {
		return Violation{}, false, err
	}
	outcome := Classify(cluster, deliveries, quiet)
	if outcome == Consistent {
		return Violation{}, false, nil
	}
	return Violation{
		Pattern:    append(Pattern(nil), p...),
		Outcome:    outcome,
		Deliveries: deliveries,
		Crashed:    crash,
	}, true, nil
}

// Classify judges the fate of one frame broadcast by station 0, given how
// many copies each station delivered and whether the bus went quiet.
// Consistency is judged among the correct (error-active or error-passive)
// stations; this is the one classifier behind verify's violations and the
// figure scenarios' verdicts.
func Classify(cluster *sim.Cluster, deliveries []int, quiet bool) Outcome {
	if !quiet {
		return Stuck
	}
	correct := func(i int) bool {
		m := cluster.Nodes[i].Mode()
		return m == node.ErrorActive || m == node.ErrorPassive
	}
	got, missing, dup := 0, 0, false
	for i := 1; i < len(deliveries); i++ {
		if !correct(i) {
			continue
		}
		switch {
		case deliveries[i] == 0:
			missing++
		case deliveries[i] > 1:
			dup = true
			got++
		default:
			got++
		}
	}
	txCorrect := correct(0)
	switch {
	case dup:
		return Duplicate
	case got > 0 && missing > 0:
		return Omission
	case got == 0 && missing > 0 && txCorrect && cluster.Nodes[0].TxSuccesses() > 0:
		// The correct transmitter believes success but no correct receiver
		// has the frame.
		return Omission
	case got == 0 && missing > 0 && txCorrect:
		return LostAll
	default:
		return Consistent
	}
}
