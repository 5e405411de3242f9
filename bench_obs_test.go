package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/sim"
)

// benchPolicies are the three protocol variants the paper compares.
func benchPolicies(b *testing.B) map[string]node.EOFPolicy {
	b.Helper()
	return map[string]node.EOFPolicy{
		"can":        core.NewStandard(),
		"minorcan":   core.NewMinorCAN(),
		"majorcan_5": core.MustMajorCAN(5),
	}
}

// BenchmarkSingleFrameBroadcast measures one undisturbed broadcast on a
// 5-node bus: cluster construction, bit-level simulation to quiescence.
func BenchmarkSingleFrameBroadcast(b *testing.B) {
	for name, policy := range benchPolicies(b) {
		b.Run(name, func(b *testing.B) {
			cfg := sim.MCConfig{Policy: policy, Nodes: 5, Frames: 1, ResetCounters: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.MonteCarlo(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.FramesSent != 1 {
					b.Fatal("frame not sent")
				}
			}
		})
	}
}

// BenchmarkMonteCarlo1k measures a 1000-frame Monte Carlo run per policy
// under the spatial error model, the workhorse of the paper's Table 1
// reproduction.
func BenchmarkMonteCarlo1k(b *testing.B) {
	for name, policy := range benchPolicies(b) {
		b.Run(name, func(b *testing.B) {
			cfg := sim.MCConfig{
				Policy: policy, Nodes: 5, Frames: 1000,
				BerStar: 0.02, EOFOnly: true, Seed: 7, ResetCounters: true,
			}
			var slots uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.MonteCarlo(cfg)
				if err != nil {
					b.Fatal(err)
				}
				slots = res.Slots
			}
			b.ReportMetric(float64(slots)*float64(b.N)/b.Elapsed().Seconds(), "bitslots/s")
		})
	}
}

// BenchmarkEngineBitslots compares the fast bit-slot engine against the
// reference per-slot loop on the workloads that matter (DESIGN.md §15):
// an undisturbed sweep, where quiescent fast-forward batches whole frame
// bodies; the disturbed EOF-only Monte Carlo, where the gated error
// model lets windows persist between draws; and the paper's reference
// bus (sim.RunWorkload: 32 stations at 90 % load under the ungated
// ber* model), where windows reach up to the next firing draw. The
// bitslots/s metric is the repo's throughput currency; the engines
// produce bit-identical traces (see internal/sim CompareEngines), so
// this is a pure like-for-like comparison.
func BenchmarkEngineBitslots(b *testing.B) {
	workloads := map[string]sim.MCConfig{
		"undisturbed-sweep": {
			Policy: core.MustMajorCAN(5), Nodes: 5, Frames: 500,
			Seed: 7, ResetCounters: true,
		},
		"disturbed-mc": {
			Policy: core.MustMajorCAN(5), Nodes: 5, Frames: 500,
			BerStar: 0.02, EOFOnly: true, Seed: 7, ResetCounters: true,
		},
	}
	for wname, cfg := range workloads {
		for _, engine := range []sim.EngineChoice{sim.EngineFast, sim.EngineReference} {
			cfg := cfg
			cfg.Engine = engine
			b.Run(wname+"/"+string(engine), func(b *testing.B) {
				var slots uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := sim.MonteCarlo(cfg)
					if err != nil {
						b.Fatal(err)
					}
					slots = res.Slots
				}
				b.ReportMetric(float64(slots)*float64(b.N)/b.Elapsed().Seconds(), "bitslots/s")
			})
		}
	}
	load32 := sim.WorkloadConfig{
		Policy: core.MustMajorCAN(5), Nodes: 32, Slots: 16000,
		Load: 0.9, BerStar: 1e-5, Seed: 1,
	}
	for _, engine := range []sim.EngineChoice{sim.EngineFast, sim.EngineReference} {
		b.Run("bus-load32/"+string(engine), func(b *testing.B) {
			// RunWorkload takes no engine option: switch the process
			// default for the duration of the sub-benchmark.
			if err := sim.SetDefaultEngine(engine); err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := sim.SetDefaultEngine(sim.EngineAuto); err != nil {
					b.Fatal(err)
				}
			}()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunWorkload(load32); err != nil {
					b.Fatal(err)
				}
			}
			// Slots before the drain, as perfbench counts them.
			b.ReportMetric(float64(load32.Slots)*float64(b.N)/b.Elapsed().Seconds(), "bitslots/s")
		})
	}
}

// discardSink counts events without retaining them, isolating emission
// cost from sink cost.
type discardSink struct{ n int }

func (d *discardSink) Emit(obs.Event) { d.n++ }

// BenchmarkEventOverhead measures the full simulation with event
// emission disabled (nil sink — the acceptance criterion requires this
// within 5% of no telemetry at all), against a counting sink and an
// in-memory sink, on the same 200-frame disturbed workload.
func BenchmarkEventOverhead(b *testing.B) {
	base := sim.MCConfig{
		Policy: core.MustMajorCAN(5), Nodes: 5, Frames: 200,
		BerStar: 0.02, EOFOnly: true, Seed: 7, ResetCounters: true,
	}
	run := func(b *testing.B, cfg sim.MCConfig) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.MonteCarlo(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	// nil-sink: no telemetry attached, so every emission site hits the
	// controller's nil-sink early return — the hot-path cost every
	// un-instrumented simulation pays after this PR.
	b.Run("nil-sink", func(b *testing.B) { run(b, base) })
	b.Run("discard", func(b *testing.B) {
		cfg := base
		cfg.Events = &discardSink{}
		run(b, cfg)
	})
	b.Run("memory", func(b *testing.B) {
		cfg := base
		cfg.Events = obs.NewMemory()
		run(b, cfg)
	})
	b.Run("metrics", func(b *testing.B) {
		cfg := base
		cfg.Metrics = obs.NewMetrics()
		run(b, cfg)
	})
}

// BenchmarkEmit measures the raw cost of one event through the ring
// buffer, the per-bit upper bound of the telemetry layer.
func BenchmarkEmit(b *testing.B) {
	ring := obs.NewRing(1 << 12)
	mem := obs.NewMemory()
	e := obs.Event{Slot: 1, Kind: obs.KindRetransmit, Station: 3}
	b.Run("ring", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ring.Emit(e)
			if i%1024 == 1023 {
				ring.Drain(obs.SinkFunc(func(obs.Event) {}))
			}
		}
	})
	b.Run("memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mem.Emit(e)
			if i%4096 == 4095 {
				mem.Reset()
			}
		}
	})
	metrics := obs.NewMetrics()
	b.Run("metrics", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			metrics.Emit(e)
		}
	})
}

// TestTelemetryZeroAllocWhenDisabled asserts the allocation contract
// the hotpath analyzer enforces statically: with tracing disabled (nil
// sink) the per-bit path allocates nothing, and every telemetry
// primitive on the enabled path — ring emit, ring drain, metrics
// accumulation, a saturated capture — is allocation-free too. These are
// hard failures, not benchmark numbers, so a regression cannot hide in
// benchmark noise.
func TestTelemetryZeroAllocWhenDisabled(t *testing.T) {
	e := obs.Event{Slot: 1, Kind: obs.KindRetransmit, Station: 3}
	discard := obs.SinkFunc(func(obs.Event) {})

	ring := obs.NewRing(1 << 10)
	if a := testing.AllocsPerRun(1000, func() {
		ring.Emit(e)
		ring.Drain(discard)
	}); a != 0 {
		t.Errorf("ring emit+drain allocates %.1f/op, want 0", a)
	}

	metrics := obs.NewMetrics()
	if a := testing.AllocsPerRun(1000, func() { metrics.Emit(e) }); a != 0 {
		t.Errorf("metrics emit allocates %.1f/op, want 0", a)
	}

	// A capture past its bound only counts; the steady state of a long
	// job must not grow the archived prefix.
	capture := obs.NewCapture(1)
	capture.Emit(e)
	capture.Emit(e)
	if a := testing.AllocsPerRun(1000, func() { capture.Emit(e) }); a != 0 {
		t.Errorf("saturated capture emit allocates %.1f/op, want 0", a)
	}

	// Idle bus stepping, uninstrumented and instrumented with the
	// service's composite sink: the per-bit hot path itself.
	plain := sim.MustCluster(sim.ClusterOptions{Nodes: 3, Policy: core.NewStandard()})
	plain.Net.Run(64) // settle
	if a := testing.AllocsPerRun(1000, func() { plain.Net.Run(1) }); a != 0 {
		t.Errorf("idle uninstrumented bit step allocates %.1f/op, want 0", a)
	}
	wired := sim.MustCluster(sim.ClusterOptions{
		Nodes:  3,
		Policy: core.NewStandard(),
		Events: obs.Locked(obs.Multi(obs.NewRing(1<<10), obs.NewCapture(16))),
	})
	wired.Net.Run(64)
	if a := testing.AllocsPerRun(1000, func() { wired.Net.Run(1) }); a != 0 {
		t.Errorf("idle instrumented bit step allocates %.1f/op, want 0", a)
	}
}

// BenchmarkTraceSynthesis measures exporting a disturbed broadcast's
// event stream as a Perfetto trace — the cost of one `mcctl trace`
// download, paid at export time, never on the simulation path.
func BenchmarkTraceSynthesis(b *testing.B) {
	mem := obs.NewMemory()
	if _, err := chaos.Run(context.Background(), chaos.Script{
		Version:  chaos.ScriptVersion,
		Protocol: "can",
		Nodes:    5,
		Frames:   20,
		Faults: []chaos.Fault{
			{Kind: chaos.ViewFlip, Station: 1, EOFRel: 1, Attempt: 1},
		},
	}, chaos.Telemetry{Events: mem}); err != nil {
		b.Fatal(err)
	}
	events := mem.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr span.Trace
		span.AddProtocol(&tr, events, span.ProtocolOptions{Pid: 1})
		if err := tr.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
