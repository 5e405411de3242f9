package verify

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/node"
	"repro/internal/sim"
)

// freshReport is the report the pre-snapshot verifier produced: the
// literal DFS walk, and for every pattern and crash placement a new
// cluster simulated from slot 0 by the reference loop, disturbed by one
// AtEOFBit rule per flip.
func freshReport(t *testing.T, cfg Config) *Report {
	t.Helper()
	if cfg.Stations == 0 {
		cfg.Stations = 4
	}
	if cfg.SlotsBudget == 0 {
		cfg.SlotsBudget = 6000
	}
	var sites []Flip
	for s := 0; s < cfg.Stations; s++ {
		for p := 1; p <= cfg.positions(); p++ {
			sites = append(sites, Flip{Station: s, Pos: p})
		}
	}
	crashes := []int{-1}
	if cfg.CrashSweep {
		for s := 0; s < cfg.Stations; s++ {
			crashes = append(crashes, s)
		}
	}
	patterns := dfs(len(sites), cfg.MaxFlips)
	rep := &Report{Config: cfg, PatternsBy: make([]int, cfg.MaxFlips+1), Checked: len(patterns)}
	found := make([][]Violation, len(patterns))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(patterns); i += workers {
				p := make(Pattern, len(patterns[i]))
				for j, site := range patterns[i] {
					p[j] = sites[site]
				}
				for _, crash := range crashes {
					c, err := sim.NewCluster(sim.ClusterOptions{Nodes: cfg.Stations, Policy: cfg.Policy, Engine: sim.EngineReference})
					if err != nil {
						t.Error(err)
						return
					}
					script := errmodel.NewScript()
					for _, f := range p {
						script.Add(errmodel.AtEOFBit([]int{f.Station}, f.Pos, 1))
					}
					c.Net.AddDisturber(script)
					if crash >= 0 {
						c.Net.AddProbe(&sim.CrashAtFirstFlag{Ctrl: c.Nodes[crash], Station: crash})
					}
					if err := c.Nodes[0].Enqueue(verifyFrame); err != nil {
						t.Error(err)
						return
					}
					quiet := c.RunUntilQuiet(cfg.SlotsBudget)
					deliveries := make([]int, cfg.Stations)
					for s := range deliveries {
						deliveries[s] = c.DeliveryCount(s, verifyFrame)
					}
					if o := Classify(c, deliveries, quiet); o != Consistent {
						found[i] = append(found[i], Violation{Pattern: p, Outcome: o, Deliveries: deliveries, Crashed: crash})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rep.Violations = []Violation{}
	for i, p := range patterns {
		rep.PatternsBy[len(p)]++
		rep.Violations = append(rep.Violations, found[i]...)
	}
	return rep
}

// The differential oracle for the prefix snapshot and the unranked
// enumeration: Exhaustive, restoring one pre-EOF snapshot per worker,
// reports exactly what fresh clusters simulated from slot 0 report —
// Checked, PatternsBy, and every violation with its deliveries and
// crashed station, in order — for CAN and MinorCAN at k<=3, MajorCAN_3 at
// k<=3 and MajorCAN_5 at k<=2, each with and without the crash sweep.
func TestExhaustiveMatchesFreshClusters(t *testing.T) {
	for _, c := range []struct {
		policy node.EOFPolicy
		k      int
	}{
		{core.NewStandard(), 3},
		{core.NewMinorCAN(), 3},
		{core.MustMajorCAN(3), 3},
		{core.MustMajorCAN(5), 2},
	} {
		for _, crash := range []bool{false, true} {
			cfg := Config{Policy: c.policy, MaxFlips: c.k, CrashSweep: crash, Parallelism: 2}
			t.Run(fmt.Sprintf("%s/k%d/crash=%v", c.policy.Name(), c.k, crash), func(t *testing.T) {
				got, _, err := Exhaustive(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := freshReport(t, cfg)
				if got.Checked != want.Checked || !reflect.DeepEqual(got.PatternsBy, want.PatternsBy) {
					t.Fatalf("checked %d by %v, fresh %d by %v", got.Checked, got.PatternsBy, want.Checked, want.PatternsBy)
				}
				if len(got.Violations) != len(want.Violations) {
					t.Fatalf("%d violations, fresh %d", len(got.Violations), len(want.Violations))
				}
				for i := range got.Violations {
					if !reflect.DeepEqual(got.Violations[i], want.Violations[i]) {
						t.Fatalf("violation %d: %s, fresh %s", i, got.Violations[i], want.Violations[i])
					}
				}
			})
		}
	}
}

// Exhaustive is engine-transparent: its scripts run on the fast engine's
// packed core, and the report and the memo counters are byte for byte
// what the reference loop gives — MajorCAN_5 at k<=2, MajorCAN_3 at k<=3
// and CAN at k<=2 with the crash sweep, whose crash probe puts those
// runs on the reference plan under either engine.
func TestExhaustiveEngineTransparent(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: core.MustMajorCAN(5), MaxFlips: 2},
		{Policy: core.MustMajorCAN(3), MaxFlips: 3},
		{Policy: core.NewStandard(), MaxFlips: 2, CrashSweep: true},
	} {
		cfg.Parallelism = 1
		t.Run(fmt.Sprintf("%s/k%d/crash=%v", cfg.Policy.Name(), cfg.MaxFlips, cfg.CrashSweep), func(t *testing.T) {
			reports := map[sim.EngineChoice]string{}
			memos := map[sim.EngineChoice]sim.MemoStats{}
			for _, engine := range []sim.EngineChoice{sim.EngineFast, sim.EngineReference} {
				if err := sim.SetDefaultEngine(engine); err != nil {
					t.Fatal(err)
				}
				rep, memo, err := Exhaustive(context.Background(), cfg)
				if err := sim.SetDefaultEngine(sim.EngineAuto); err != nil {
					t.Fatal(err)
				}
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(rep.Violations)
				if err != nil {
					t.Fatal(err)
				}
				reports[engine] = fmt.Sprintf("%s\n%v %d\n%s", rep.Summary(), rep.PatternsBy, rep.Checked, b)
				memos[engine] = memo
			}
			if f, r := reports[sim.EngineFast], reports[sim.EngineReference]; f != r {
				t.Fatalf("reports differ:\n  fast:      %s\n  reference: %s", f, r)
			}
			if f, r := memos[sim.EngineFast], memos[sim.EngineReference]; f != r {
				t.Fatalf("memo counters: fast %+v, reference %+v", f, r)
			}
		})
	}
}

// A verify run allocates nothing once warm: a pattern refilled into the
// worker's reset script, restored from the prefix and served from the
// suffix memo.
func TestMemoHitRunAllocatesNothing(t *testing.T) {
	runner, err := sim.NewFrameRunner(core.MustMajorCAN(5), 4, verifyFrame)
	if err != nil {
		t.Fatal(err)
	}
	script := errmodel.NewScript()
	pattern := Pattern{{Station: 1, Pos: 3}, {Station: 0, Pos: 4}, {Station: 2, Pos: 13}}
	runner.Run(pattern.Fill(script), -1, nil, 6000)
	before := runner.MemoStats()
	allocs := testing.AllocsPerRun(50, func() {
		if _, quiet, _ := runner.Run(pattern.Fill(script), -1, nil, 6000); !quiet {
			t.Fatal("the run did not go quiet")
		}
	})
	if allocs != 0 {
		t.Errorf("a memo-hit run allocates %g times, want 0", allocs)
	}
	if after := runner.MemoStats(); after.Hits-before.Hits < 50 || after.Misses != before.Misses {
		t.Errorf("memo %+v -> %+v: every measured run must be a hit", before, after)
	}
}
