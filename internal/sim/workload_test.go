package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestWorkloadErrorFree(t *testing.T) {
	res, err := sim.RunWorkload(sim.WorkloadConfig{
		Policy: core.NewStandard(),
		Nodes:  8,
		Slots:  40000,
		Load:   0.9,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.TxSuccess == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.IMOs != 0 || res.Duplicates != 0 {
		t.Errorf("error-free workload produced IMOs=%d dups=%d", res.IMOs, res.Duplicates)
	}
	// Every successful transmission reaches all 7 receivers.
	if res.Delivered != res.TxSuccess*7 {
		t.Errorf("delivered %d, want %d (7 per success)", res.Delivered, res.TxSuccess*7)
	}
	// The bus must actually be loaded: utilisation within (0.5, 1].
	if res.Utilisation < 0.5 || res.Utilisation > 1.001 {
		t.Errorf("utilisation = %.2f, want ~0.9", res.Utilisation)
	}
}

func TestWorkloadWithErrorsStaysConsistentUnderMajorCAN(t *testing.T) {
	res, err := sim.RunWorkload(sim.WorkloadConfig{
		Policy:  core.MustMajorCAN(5),
		Nodes:   6,
		Slots:   60000,
		Load:    0.8,
		BerStar: 2e-4,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorFrames == 0 {
		t.Error("expected some error signalling under random errors")
	}
	if res.IMOs != 0 || res.Duplicates != 0 {
		t.Errorf("MajorCAN workload produced IMOs=%d dups=%d", res.IMOs, res.Duplicates)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := sim.RunWorkload(sim.WorkloadConfig{Policy: core.NewStandard(), Nodes: 2, Slots: 100, Load: 0.5}); err == nil {
		t.Error("too few nodes must be rejected")
	}
	if _, err := sim.RunWorkload(sim.WorkloadConfig{Policy: core.NewStandard(), Nodes: 4, Slots: 100, Load: 1.5}); err == nil {
		t.Error("overload must be rejected")
	}
	if _, err := sim.RunWorkload(sim.WorkloadConfig{Policy: core.NewStandard(), Nodes: 4, Slots: 0, Load: 0.5}); err == nil {
		t.Error("zero slots must be rejected")
	}
}

// TestWorkloadEnginesAgree pins RunWorkload's engine transparency on the
// paper's reference bus (32 stations, 90 % load, ungated ber*): the fast
// engine, which fast-forwards between the stream's firing draws, and the
// reference loop must give identical results, BusySlots included. It
// switches the process-wide default engine, so it must not run in
// parallel.
func TestWorkloadEnginesAgree(t *testing.T) {
	for _, ber := range []float64{0, 1e-5, 1e-3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ber%g/seed%d", ber, seed), func(t *testing.T) {
				cfg := sim.WorkloadConfig{
					Policy: core.MustMajorCAN(5), Nodes: 32, Slots: 16000,
					Load: 0.9, BerStar: ber, Seed: seed,
				}
				results := make(map[sim.EngineChoice]*sim.WorkloadResult)
				for _, choice := range []sim.EngineChoice{sim.EngineFast, sim.EngineReference} {
					if err := sim.SetDefaultEngine(choice); err != nil {
						t.Fatal(err)
					}
					res, err := sim.RunWorkload(cfg)
					if err != nil {
						t.Fatal(err)
					}
					results[choice] = res
				}
				if err := sim.SetDefaultEngine(sim.EngineAuto); err != nil {
					t.Fatal(err)
				}
				fast, ref := results[sim.EngineFast], results[sim.EngineReference]
				if !reflect.DeepEqual(fast, ref) {
					t.Fatalf("engines diverge:\n  fast:      %+v\n  reference: %+v", *fast, *ref)
				}
				if ref.Offered == 0 || ref.BusySlots == 0 {
					t.Fatalf("no traffic: %+v", *ref)
				}
			})
		}
	}
}
