package verify

import (
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
// cluster simulated from slot 0.
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
					c, err := sim.NewCluster(sim.ClusterOptions{Nodes: cfg.Stations, Policy: cfg.Policy})
					if err != nil {
						t.Error(err)
						return
					}
					c.Net.AddDisturber(errmodel.NewScript(p.Rules()...))
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
				got, err := Exhaustive(cfg)
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
