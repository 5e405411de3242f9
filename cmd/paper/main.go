// Command paper regenerates the MajorCAN paper's tables and figures and
// runs its checks: `paper <subcommand> [flags]`, one subcommand per result
// (run it without arguments for the list). A failure prints one "paper
// <subcommand>: <error>" line on stderr and exits 1; verify exits 2 when
// it finds a consistency violation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/bitstream"
	"repro/internal/bittiming"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/verify"
)

// A subcommand registers its flags on a fresh flag set and returns the
// body to run once they are parsed.
type subcommand struct {
	name, doc string
	flags     func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error
}

var subcommands = []subcommand{
	{"table1", "Table 1: per-hour rates of the new and old inconsistency scenarios (eqs. 4 and 5)", table1},
	{"scenarios", "replay the paper's figures bit by bit, with per-node timelines and verdicts", scenarios},
	{"overhead", "per-frame bus occupancy of MajorCAN_m against CAN and the FTCS'98 protocols (Sections 5-6)", overhead},
	{"tolerance", "the smallest MajorCAN m that meets a target rate at each bit error rate", tolerance},
	{"drift", "sampling integrity of frame traffic under oscillator drift (bit timing)", drift},
	{"verify", "check every pattern of up to k view flips in the end-of-frame region", verifyCmd},
}

// errViolations ends verify when some pattern breaks consistency: the
// report on stdout already says which, so it exits 2 without an error line.
var errViolations = errors.New("consistency violated")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one subcommand and returns the process exit code: 0 on
// success, 1 on failure, 2 on a usage error or a consistency violation.
func run(args []string, stdout, stderr io.Writer) int {
	for _, sc := range subcommands {
		if len(args) == 0 || sc.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("paper "+sc.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		body := sc.flags(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		var err error
		if fs.NArg() > 0 {
			err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		} else {
			err = body(stdout, stderr)
		}
		switch err {
		case nil:
			return 0
		case errViolations:
			return 2
		}
		fmt.Fprintf(stderr, "paper %s: %v\n", sc.name, err)
		return 1
	}
	fmt.Fprintln(stderr, "usage: paper <subcommand> [flags]\n\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(stderr, "  %-10s %s\n", sc.name, sc.doc)
	}
	return 2
}

// parseList parses a comma-separated flag value item by item; what names
// an item in the error.
func parseList[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(item))
		if err != nil {
			return nil, fmt.Errorf("invalid %s %q: %v", what, item, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// table1 evaluates expressions (4) and (5), by default on the paper's
// reference network (32 nodes, 1 Mbps, 90% load, 110-bit frames).
func table1(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	bers := fs.String("ber", "1e-4,1e-5,1e-6", "comma-separated bit error rates")
	nodes := fs.Int("nodes", 32, "number of nodes N")
	tau := fs.Int("tau", 110, "frame length in bits")
	load := fs.Float64("load", 0.9, "bus load")
	rate := fs.Float64("bitrate", 1e6, "bus speed in bit/s")
	return func(w, _ io.Writer) error {
		list, err := parseList(*bers, "ber", parseFloat)
		if err != nil {
			return err
		}
		// The published values belong to the paper's exact configuration.
		paperConfig := *nodes == 32 && *tau == 110 && *load == 0.9 && *rate == 1e6
		var rows []analytic.Table1Row
		for _, ber := range list {
			p := analytic.Reference(ber)
			p.Nodes, p.FrameBits, p.Load, p.BitRate = *nodes, *tau, *load, *rate
			if err := p.Validate(); err != nil {
				return err
			}
			row := analytic.Table1Row{Ber: ber, NewPerHour: p.NewScenarioPerHour(), OldPerHour: p.OldScenarioPerHour()}
			for _, pr := range analytic.PaperTable1 {
				if paperConfig && pr.Ber == ber {
					row.RufinoPerHour = pr.RufinoPerHour
				}
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(w, "Table 1 — probabilities of the inconsistency scenarios (N=%d, tau=%d bits, %.0f%% load, %.0f bit/s)\n\n",
			*nodes, *tau, 100**load, *rate)
		fmt.Fprint(w, analytic.RenderTable1(rows))
		fmt.Fprintf(w, "\nsafety reference: %.0e incidents/hour (aerospace)\n", analytic.SafetyReference)
		for _, r := range rows {
			if r.NewPerHour > analytic.SafetyReference {
				fmt.Fprintf(w, "  ber=%.0e: IMOnew/hour exceeds the safety reference by %.0fx\n",
					r.Ber, r.NewPerHour/analytic.SafetyReference)
			}
		}
		return nil
	}
}

func scenarios(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	fig := fs.String("fig", "all", "figure to replay: 1a, 1b, 1c, 2, 3a, 3b, 4, 5, major-new, can5 or all")
	m := fs.Int("m", core.DefaultM, "MajorCAN error tolerance parameter m")
	showTrace := fs.Bool("trace", true, "print per-node bit timelines")
	return func(w, _ io.Writer) error {
		show := func(out *scenario.Outcome, timeline bool) {
			fmt.Fprintln(w, "==", out.Name, "==")
			fmt.Fprintln(w, out.Summary())
			if tl := out.Timeline(); timeline && tl != "" {
				fmt.Fprintln(w)
				fmt.Fprint(w, tl)
				fmt.Fprintln(w, "legend: d/r sampled level, D driving dominant, R driving recessive in-frame, ! disturbed sample, . idle")
			}
			fmt.Fprintln(w)
		}
		replay := func(f func() (*scenario.Outcome, error)) func() error {
			return func() error {
				out, err := f()
				if err == nil {
					show(out, *showTrace)
				}
				return err
			}
		}
		std := core.NewStandard()
		var major core.MajorCAN // set from -m before any figure that reads it runs
		figures := []struct {
			name  string
			usesM bool
			run   func() error
		}{
			{"1a", false, replay(func() (*scenario.Outcome, error) { return scenario.Fig1a(std) })},
			{"1b", false, replay(func() (*scenario.Outcome, error) { return scenario.Fig1b(std) })},
			{"1c", false, replay(func() (*scenario.Outcome, error) { return scenario.Fig1c(std) })},
			{"2", false, func() error {
				a, b, c, err := scenario.Fig2()
				if err != nil {
					return err
				}
				for _, out := range []*scenario.Outcome{a, b, c} {
					show(out, false)
				}
				return nil
			}},
			{"3a", false, replay(scenario.Fig3a)},
			{"3b", false, replay(scenario.Fig3b)},
			{"4", true, func() error {
				rows, err := scenario.Fig4(*m)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "== Fig. 4: behaviour of a MajorCAN_%d node ==\n", *m)
				fmt.Fprint(w, scenario.RenderFig4(rows))
				fmt.Fprintln(w)
				return nil
			}},
			{"5", true, replay(func() (*scenario.Outcome, error) { return scenario.Fig5(*m) })},
			{"major-new", true, replay(func() (*scenario.Outcome, error) { return scenario.NewScenario(major) })},
			{"can5", true, func() error {
				fmt.Fprintln(w, "== CAN5 total-order example (Section 2.2) ==")
				for _, policy := range []node.EOFPolicy{std, core.NewMinorCAN(), major} {
					out, err := scenario.CAN5(policy)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, "%-12s %s\n", policy.Name()+":", out.Summary())
				}
				fmt.Fprintln(w)
				return nil
			}},
		}
		selected := figures[:0]
		usesM := false
		for _, f := range figures {
			if *fig == "all" || *fig == f.name {
				selected = append(selected, f)
				usesM = usesM || f.usesM
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("unknown figure %q (want 1a, 1b, 1c, 2, 3a, 3b, 4, 5, major-new, can5 or all)", *fig)
		}
		// Reject a bad -m before any figure prints, but only when a
		// selected figure reads it.
		if usesM {
			var err error
			if major, err = core.NewMajorCAN(*m); err != nil {
				return fmt.Errorf("-m: %w", err)
			}
		}
		for _, f := range selected {
			if err := f.run(); err != nil {
				return fmt.Errorf("fig %s: %w", f.name, err)
			}
		}
		return nil
	}
}

func overhead(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	msFlag := fs.String("m", "3,4,5,6,7,8", "comma-separated MajorCAN m values")
	return func(w, _ io.Writer) error {
		ms, err := parseList(*msFlag, "m", func(s string) (int, error) {
			m, err := strconv.Atoi(s)
			if err == nil {
				_, err = core.NewMajorCAN(m)
			}
			return m, err
		})
		if err != nil {
			return err
		}
		rows, canBest, canWorst, err := sim.MeasureOverhead(
			func(m int) node.EOFPolicy { return core.MustMajorCAN(m) },
			core.NewStandard(), ms)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Per-frame bus occupancy (8-byte payload), measured on the bit-level simulator")
		fmt.Fprintf(w, "standard CAN: best case %d slots, worst case (error at last EOF bit) %d slots\n\n", canBest, canWorst)
		fmt.Fprintf(w, "%-4s  %-10s  %-10s  %-22s  %-22s\n", "m", "best", "worst", "best overhead vs CAN", "worst vs CAN best")
		fmt.Fprintf(w, "%-4s  %-10s  %-10s  %-22s  %-22s\n", "", "(slots)", "(slots)", "measured (paper 2m-7)", "measured (paper 4m-9)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-4d  %-10d  %-10d  %4d (%d)%13s  %4d (%d)\n",
				r.M, r.BestSlots, r.WorstSlots,
				r.BestOverhead, r.PaperBest, "",
				r.WorstSlots-canBest, r.PaperWorst)
		}
		fmt.Fprint(w, `
Higher-level protocol cost per application message (frames on the bus, error-free case):
  raw CAN / MinorCAN / MajorCAN_m: 1 frame (the overhead above is bits, not frames)
  EDCAN:  1 + (N-1) replica frames (every receiver retransmits once)
  RELCAN: 2 frames (data + CONFIRM)
  TOTCAN: 2 frames (data + ACCEPT)

The paper's conclusion: even MajorCAN's worst-case cost of a few bits is negligible
compared with any protocol that needs at least one extra frame per message.
`)
		return nil
	}
}

// tolerance quantifies the paper's remark that "if ber is larger then
// larger values of m should be considered".
func tolerance(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	bers := fs.String("ber", "1e-6,1e-5,1e-4,1e-3,1e-2", "comma-separated bit error rates")
	target := fs.Float64("target", analytic.SafetyReference, "target rate in incidents/hour")
	return func(w, _ io.Writer) error {
		list, err := parseList(*bers, "ber", parseFloat)
		if err != nil {
			return err
		}
		rows, err := analytic.ToleranceTable(list, *target)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "MajorCAN m selection for a %g/hour target (N=32, 1 Mbps, 90%% load, 110-bit frames)\n\n", *target)
		fmt.Fprintf(w, "%-8s  %-10s  %-20s  %-24s\n", "ber", "required m", "residual at that m", "residual of paper's m=5")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8.0e  %-10d  %-20.3e  %-24.3e\n", r.Ber, r.RequiredM, r.ResidualPerHour, r.MajorCAN5PerHour)
		}
		fmt.Fprintln(w, "\nresidual = expected frames/hour suffering more errors in the end-of-frame")
		fmt.Fprintln(w, "decision region than the protocol tolerates (spatial model, ber* = ber/N)")
		return nil
	}
}

// drift samples frame traffic through a receiver clock drifting at
// fractions and multiples of the oscillator tolerance: within it the
// slot-synchronous simulator is exact, beyond it lies the paper's
// clock-failure fault class.
func drift(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	frames := fs.Int("frames", 20, "frames in the sampled stream")
	seed := fs.Int64("seed", 1, "random seed for the frame contents")
	return func(w, _ io.Writer) error {
		if *frames < 1 {
			return fmt.Errorf("-frames must be at least 1, got %d", *frames)
		}
		configs := []struct {
			name string
			seg  bittiming.Segments
		}{
			{"classic 16tq (SJW 2)", bittiming.Classic()},
			{"16tq wide SJW", bittiming.Segments{Prop: 7, PS1: 4, PS2: 4, SJW: 4}},
			{"8tq minimal", bittiming.Segments{Prop: 3, PS1: 2, PS2: 2, SJW: 1}},
			{"25tq slow bus", bittiming.Segments{Prop: 12, PS1: 8, PS2: 4, SJW: 4}},
		}
		r := rand.New(rand.NewSource(*seed))
		var stream bitstream.Sequence
		for i := 0; i < *frames; i++ {
			f := &frame.Frame{ID: uint32(r.Intn(frame.MaxStandardID + 1)), Data: make([]byte, 8)}
			if i%2 == 0 {
				r.Read(f.Data) // random payload
			} // else all-zero: maximum stuffing, longest edge-free runs
			enc, err := frame.Encode(f, frame.StandardEOFBits)
			if err != nil {
				return err
			}
			stream = append(stream, enc.Bits...)
			stream = append(stream, bitstream.Repeat(bitstream.Recessive, 3)...)
		}
		fmt.Fprintf(w, "sampling %d bits of frame traffic through a drifting receiver clock\n\n", len(stream))
		fmt.Fprintf(w, "%-22s  %-6s  %-12s  %s\n", "configuration", "NBT", "tolerance", "mismatches at 0.5x / 0.9x / 2x / 4x tolerance")
		for _, cfg := range configs {
			tol := cfg.seg.MaxTolerance()
			row := []any{cfg.name, cfg.seg.NBT(), fmt.Sprintf("±%.3f%%", 100*tol)}
			for _, frac := range []float64{0.5, 0.9, 2, 4} {
				sp, err := bittiming.NewSampler(cfg.seg, tol*frac, -tol*frac)
				if err != nil {
					return fmt.Errorf("%s: %w", cfg.name, err)
				}
				row = append(row, sp.MismatchCount(stream))
			}
			fmt.Fprintf(w, "%-22s  %-6d  %-12s  %d / %d / %d / %d\n", row...)
		}
		fmt.Fprintln(w, "\nwithin tolerance the resynchronisation absorbs all drift (0 mismatches);")
		fmt.Fprintln(w, "beyond it sampling breaks — the paper's clock-failure fault class, which the")
		fmt.Fprintln(w, "fault confinement then converts into stuff/CRC/form errors at the drifted node")
		return nil
	}
}

// verifyCmd is the bounded model checking the paper left as future work.
// The suffix memo's counters go to stderr: they vary with -parallel.
func verifyCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	policyName := fs.String("policy", "majorcan_5", "protocol: can, minorcan or majorcan_<m>")
	stations := fs.Int("stations", 4, "number of stations (station 0 transmits)")
	k := fs.Int("k", 2, "maximum number of simultaneous view flips")
	positions := fs.Int("positions", 0, "EOF-relative positions to disturb (0 = the policy's full decision region)")
	parallel := fs.Int("parallel", 4, "concurrent simulations")
	crash := fs.Bool("crash", false, "also crash each station at its first flag, per pattern")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return func(w, errw io.Writer) (err error) {
		stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile, *pprofAddr)
		if err != nil {
			return err
		}
		defer func() {
			// An unwritable profile fails a run that had no error of its own.
			if perr := stopProf(); perr != nil && (err == nil || err == errViolations) {
				err = perr
			}
		}()
		policy, err := core.ParsePolicy(*policyName)
		if err != nil {
			return err
		}
		//lint:allow determinism -- CLI elapsed-time display; not simulation state
		start := time.Now()
		rep, memo, err := verify.Exhaustive(context.Background(), verify.Config{Policy: policy,
			Stations: *stations, MaxFlips: *k, Positions: *positions, Parallelism: *parallel, CrashSweep: *crash})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.Summary())
		//lint:allow determinism -- CLI elapsed-time display; not simulation state
		fmt.Fprintf(w, "elapsed: %s\n", time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(errw, "suffix memo: %d hits, %d misses, %d entries\n", memo.Hits, memo.Misses, memo.Entries)
		if rep.Consistent() {
			return nil
		}
		byOutcome := map[verify.Outcome]int{}
		for _, v := range rep.Violations {
			byOutcome[v.Outcome]++
		}
		fmt.Fprintf(w, "violations by outcome: %v\n", byOutcome)
		return errViolations
	}
}
