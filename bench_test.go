// Package repro's top-level benchmarks regenerate every table and figure
// of the MajorCAN paper (see DESIGN.md for the per-experiment index) and
// measure the simulator's throughput. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/verify"
)

// BenchmarkTable1 regenerates Table 1 (expressions 4 and 5 under the ber*
// model) and reports the three rows as custom metrics.
func BenchmarkTable1(b *testing.B) {
	var rows []analytic.Table1Row
	for i := 0; i < b.N; i++ {
		rows = analytic.Table1()
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.NewPerHour, fmt.Sprintf("IMOnew/h@ber=%.0e", r.Ber))
		b.ReportMetric(r.OldPerHour, fmt.Sprintf("IMOold/h@ber=%.0e", r.Ber))
	}
	if len(rows) != 3 {
		b.Fatal("table must have 3 rows")
	}
}

func benchScenario(b *testing.B, run func() (*scenario.Outcome, error), want verify.Outcome) {
	b.Helper()
	var out *scenario.Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if out.Fate != want {
		b.Fatalf("%s: fate = %v, want %v", out.Name, out.Fate, want)
	}
	b.ReportMetric(float64(out.Recorder.Len()), "bitslots")
}

// BenchmarkFig1a: the last-bit rule keeps consistency in standard CAN.
func BenchmarkFig1a(b *testing.B) {
	benchScenario(b, func() (*scenario.Outcome, error) { return scenario.Fig1a(core.NewStandard()) }, verify.Consistent)
}

// BenchmarkFig1b: double reception at the Y set in standard CAN.
func BenchmarkFig1b(b *testing.B) {
	benchScenario(b, func() (*scenario.Outcome, error) { return scenario.Fig1b(core.NewStandard()) }, verify.Duplicate)
}

// BenchmarkFig1c: inconsistent message omission after a transmitter crash.
func BenchmarkFig1c(b *testing.B) {
	benchScenario(b, func() (*scenario.Outcome, error) { return scenario.Fig1c(core.NewStandard()) }, verify.Omission)
}

// BenchmarkFig2 replays the Fig. 1 scenarios under MinorCAN: all three end
// consistently.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x, y, z, err := scenario.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		for _, out := range []*scenario.Outcome{x, y, z} {
			if out.Fate == verify.Omission || out.Fate == verify.Duplicate {
				b.Fatal("MinorCAN must keep the Fig. 1 scenarios consistent")
			}
		}
	}
}

// BenchmarkFig3a: the new scenario defeats standard CAN (IMO with a
// correct transmitter).
func BenchmarkFig3a(b *testing.B) {
	benchScenario(b, scenario.Fig3a, verify.Omission)
}

// BenchmarkFig3b: the new scenario defeats MinorCAN too.
func BenchmarkFig3b(b *testing.B) {
	benchScenario(b, scenario.Fig3b, verify.Omission)
}

// BenchmarkFig4 regenerates the MajorCAN_5 per-position behaviour table.
func BenchmarkFig4(b *testing.B) {
	var rows []scenario.Fig4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = scenario.Fig4(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(rows) != 11 {
		b.Fatalf("got %d rows, want 11", len(rows))
	}
	for _, r := range rows {
		if !r.BusConsistent {
			b.Fatalf("%s: inconsistent", r.Label())
		}
	}
}

// BenchmarkFig5: MajorCAN_5 stays consistent under five errors.
func BenchmarkFig5(b *testing.B) {
	benchScenario(b, func() (*scenario.Outcome, error) { return scenario.Fig5(5) }, verify.Consistent)
}

// BenchmarkOverhead regenerates the Sections 5-6 overhead comparison: the
// measured best-case overhead must equal the paper's 2m-7 exactly.
func BenchmarkOverhead(b *testing.B) {
	var rows []sim.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, _, err = sim.MeasureOverhead(
			func(m int) node.EOFPolicy { return core.MustMajorCAN(m) },
			core.NewStandard(), []int{3, 4, 5, 6, 7, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		if r.BestOverhead != r.PaperBest {
			b.Fatalf("m=%d: measured best overhead %d != paper %d", r.M, r.BestOverhead, r.PaperBest)
		}
		if r.M == 5 {
			b.ReportMetric(float64(r.BestOverhead), "bestOverheadBits@m=5")
			b.ReportMetric(float64(r.WorstSlots-r.BestSlots), "worstExtensionBits@m=5")
		}
	}
}

// BenchmarkPropertyMatrix runs the protocol/property comparison of the
// paper's Sections 2-5: the Fig. 3 disturbance pattern against each
// variant, reporting which keeps Agreement.
func BenchmarkPropertyMatrix(b *testing.B) {
	policies := []node.EOFPolicy{core.NewStandard(), core.NewMinorCAN(), core.MustMajorCAN(5)}
	wantIMO := []bool{true, true, false}
	for i := 0; i < b.N; i++ {
		for k, p := range policies {
			out, err := scenario.NewScenario(p)
			if err != nil {
				b.Fatal(err)
			}
			if got := out.Fate == verify.Omission; got != wantIMO[k] {
				b.Fatalf("%s: IMO = %v, want %v", p.Name(), got, wantIMO[k])
			}
		}
	}
}

// BenchmarkMajorCANmSweep measures the error-free frame cost across m —
// the tolerance/overhead ablation called out in DESIGN.md.
func BenchmarkMajorCANmSweep(b *testing.B) {
	for _, m := range []int{3, 5, 8, 12} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var slots int
			for i := 0; i < b.N; i++ {
				var err error
				slots, err = sim.FrameOccupancy(core.MustMajorCAN(m), sim.BestCase)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(slots), "slots/frame")
		})
	}
}

// BenchmarkErrorModels contrasts the paper's spatial ber* model with the
// whole-bus global error model (ablation): under the global model every
// node sees the same disturbance, so the classic inconsistency patterns
// cannot even form.
func BenchmarkErrorModels(b *testing.B) {
	run := func(b *testing.B, global bool) *sim.MCResult {
		res, err := sim.MonteCarlo(sim.MCConfig{
			Policy:        core.NewStandard(),
			Nodes:         5,
			Frames:        300,
			BerStar:       0.02,
			Seed:          9,
			EOFOnly:       true,
			ResetCounters: true,
			GlobalModel:   global,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("spatial", func(b *testing.B) {
		var res *sim.MCResult
		for i := 0; i < b.N; i++ {
			res = run(b, false)
		}
		b.ReportMetric(float64(res.Duplicates), "duplicates")
		b.ReportMetric(float64(res.IMOs), "IMOs")
	})
	b.Run("global", func(b *testing.B) {
		var res *sim.MCResult
		for i := 0; i < b.N; i++ {
			res = run(b, true)
		}
		// Under the whole-bus model every node sees the same level, so the
		// divergent-view inconsistency patterns cannot form.
		b.ReportMetric(float64(res.Duplicates), "duplicates")
		b.ReportMetric(float64(res.IMOs), "IMOs")
	})
}

// BenchmarkSimulatorThroughput measures raw bit-slot simulation speed for
// a loaded 32-node bus (the paper's reference size).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, n := range []int{5, 32} {
		n := n
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			cluster := sim.MustCluster(sim.ClusterOptions{Nodes: n, Policy: core.MustMajorCAN(5)})
			for i := 0; i < n; i++ {
				_ = cluster.Nodes[i].Enqueue(&frame.Frame{ID: uint32(0x100 + i), Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.Net.Step()
			}
		})
	}
}

// BenchmarkFrameEncode measures the frame encoder.
func BenchmarkFrameEncode(b *testing.B) {
	f := &frame.Frame{ID: 0x2AA, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := frame.Encode(f, 10); err != nil {
			b.Fatal(err)
		}
	}
}
