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
	"sync/atomic"

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

// Fill resets s and scripts the pattern into it: one single-shot view
// flip per Flip, on the first transmission attempt. It returns s.
func (p Pattern) Fill(s *errmodel.Script) *errmodel.Script {
	s.Reset()
	for _, f := range p {
		s.FlipEOF(f.Station, f.Pos, 1)
	}
	return s
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
	// DFS pre-order of flip sets (enum.go), and only indices in
	// [PatternStart, PatternStart+PatternCount) are simulated and
	// counted; the window is clamped to the space. PatternCount == 0 with
	// PatternStart == 0 means the whole space; PatternCount == 0 with
	// PatternStart > 0 means "from PatternStart to the end". The
	// enumeration order is a pure function of (Stations, Positions,
	// MaxFlips), so a partition of index ranges across workers checks
	// exactly the full space once — the fleet coordinator's shard
	// contract.
	PatternStart int
	PatternCount int
	// Parallelism bounds the number of concurrent simulations. Every
	// worker runs its patterns on its own cluster, so the search is
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

// PatternSpace returns the size of cfg's pattern enumeration — the
// number of flip combinations of size 1..MaxFlips over the
// Stations×positions fault sites, before any PatternStart/PatternCount
// windowing. The fleet coordinator uses it to partition index ranges. It
// fails when the space does not fit in an int.
func (c Config) PatternSpace() (int, error) {
	stations := c.Stations
	if stations == 0 {
		stations = 4
	}
	n := stations * c.positions()
	space, ok := patternSpace(n, c.MaxFlips)
	if !ok {
		return 0, fmt.Errorf("verify: pattern space of C(%d, <=%d) flips does not fit in an int", n, c.MaxFlips)
	}
	return space, nil
}

// Exhaustive enumerates every pattern of 1..MaxFlips flips over the
// decision region and simulates each one. When ctx is cancelled the
// enumeration stops early and the partial report is returned alongside
// ctx's error, so a server drain or per-job timeout ends a long
// verification promptly.
//
// Workers claim contiguous chunks of the window. A worker unranks its
// chunk's first index and steps through the rest with the successor
// function, so a window costs the same wherever it starts; each worker
// runs every pattern on its own sim.FrameRunner, which restores the
// undisturbed pre-EOF prefix instead of simulating it again, with one
// errmodel.Script it refills for every run. The
// returned sim.MemoStats sums the workers' suffix-memo counters; they
// describe the execution, not the verdict, and depend on the worker
// count.
func Exhaustive(ctx context.Context, cfg Config) (*Report, sim.MemoStats, error) {
	var stats sim.MemoStats
	if cfg.Stations == 0 {
		cfg.Stations = 4
	}
	if cfg.Stations < 3 {
		return nil, stats, fmt.Errorf("verify: need >= 3 stations, got %d", cfg.Stations)
	}
	if cfg.MaxFlips < 1 {
		return nil, stats, fmt.Errorf("verify: MaxFlips must be >= 1")
	}
	if cfg.SlotsBudget == 0 {
		cfg.SlotsBudget = 6000
	}
	space, err := cfg.PatternSpace()
	if err != nil {
		return nil, stats, err
	}
	positions := cfg.positions()

	// The atomic fault sites: (station, pos) pairs.
	sites := make([]Flip, 0, cfg.Stations*positions)
	for s := 0; s < cfg.Stations; s++ {
		for p := 1; p <= positions; p++ {
			sites = append(sites, Flip{Station: s, Pos: p})
		}
	}
	k := min(cfg.MaxFlips, len(sites))

	crashes := []int{-1}
	if cfg.CrashSweep {
		for s := 0; s < cfg.Stations; s++ {
			crashes = append(crashes, s)
		}
	}

	// The pattern window: indices [start, end) of the DFS pre-order
	// enumeration, clamped to the space. The default window is the whole
	// space.
	start := min(max(cfg.PatternStart, 0), space)
	end := space
	if cfg.PatternCount > 0 && cfg.PatternCount < space-start {
		end = start + cfg.PatternCount
	}

	parallelism := max(cfg.Parallelism, 1)
	window := end - start
	chunk := max(1, min(maxChunk, window/(4*parallelism)))
	chunks := window / chunk
	if window%chunk != 0 {
		chunks++
	}
	var claimed atomic.Int64 // chunks handed out so far

	// A violation is tagged with its pattern index and crash placement:
	// enumeration order is recovered after the workers finish.
	type tagged struct {
		idx, crash int
		v          Violation
	}
	type part struct {
		by      []int
		checked int
		found   []tagged
		memo    sim.MemoStats
		err     error
	}
	parts := make([]part, min(parallelism, chunks))
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(out *part) {
			defer wg.Done()
			out.by = make([]int, cfg.MaxFlips+1)
			runner, err := sim.NewFrameRunner(cfg.Policy, cfg.Stations, verifyFrame)
			if err != nil {
				out.err = err
				return
			}
			defer func() { out.memo = runner.MemoStats() }()
			idx := make([]int, 0, k)
			pattern := make(Pattern, 0, k)
			script := errmodel.NewScript()
			for ctx.Err() == nil {
				c := int(claimed.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := start + c*chunk
				hi := lo + min(chunk, end-lo)
				idx = unrank(idx, len(sites), k, lo)
				for i := lo; i < hi && ctx.Err() == nil; i++ {
					pattern = pattern[:0]
					for _, site := range idx {
						pattern = append(pattern, sites[site])
					}
					out.by[len(pattern)]++
					out.checked++
					for ci, crash := range crashes {
						cluster, quiet, deliveries := runner.Run(pattern.Fill(script), crash, nil, cfg.SlotsBudget)
						if outcome := Classify(cluster, deliveries, quiet); outcome != Consistent {
							out.found = append(out.found, tagged{idx: i, crash: ci, v: Violation{
								Pattern:    append(Pattern(nil), pattern...),
								Outcome:    outcome,
								Deliveries: append([]int(nil), deliveries...),
								Crashed:    crash,
							}})
						}
					}
					idx, _ = next(idx, len(sites), k)
				}
			}
		}(&parts[w])
	}
	wg.Wait()

	rep := &Report{Config: cfg, PatternsBy: make([]int, cfg.MaxFlips+1)}
	var found []tagged
	for _, p := range parts {
		if p.err != nil {
			return nil, stats, p.err
		}
		stats.Add(p.memo)
		for size, n := range p.by {
			rep.PatternsBy[size] += n
		}
		rep.Checked += p.checked
		found = append(found, p.found...)
	}
	// Enumeration order is the report's canonical violation order: a pure
	// function of the config, so a run is reproducible across worker
	// counts and a partition of pattern windows merges by concatenation.
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		return a.idx < b.idx || a.idx == b.idx && a.crash < b.crash
	})
	rep.Violations = make([]Violation, 0, len(found))
	for _, t := range found {
		rep.Violations = append(rep.Violations, t.v)
	}
	if err := ctx.Err(); err != nil {
		return rep, stats, err
	}
	return rep, stats, nil
}

// maxChunk bounds the contiguous index range a worker claims at once:
// small enough that the last chunks balance across workers, large enough
// that the unranking at a chunk's start is noise.
const maxChunk = 256

// verifyFrame is the frame every pattern disturbs.
var verifyFrame = &frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}

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
