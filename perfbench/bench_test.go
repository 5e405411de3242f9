package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/verify"
)

func tinyOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: DefaultSeed, seconds: 0.3, tiny: true, setups: 2, out: t.TempDir()}
}

// TestSmoke runs every workload at tiny size, plain and traced: no job
// may fail, and each run prints exactly the metrics BENCHMARK.json
// declares for it, with the declared units.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			want := spec.EndToEnd
			if traced {
				name += "/traced"
				want = spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				o := tinyOptions(t, w.name)
				o.trace = traced
				res, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptedOutputIsFailedNotTimed damages one output per workload —
// a flipped result byte on the service workloads, a window one pattern
// short on verify_envelope, a changed digest on the simulations — and
// checks that the job is counted as failed and left out of the timings.
func TestCorruptedOutputIsFailedNotTimed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := tinyOptions(t, w.name)
			o.corrupt = func(j job) bool { return j.index == 0 && !j.repeat }
			e := &env{opts: o, tmp: t.TempDir(), clients: 2, corrupt: o.corrupt}
			s, err := w.setup(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			m := measure(context.Background(), e, w, s, nil, 0)
			m.verify(context.Background(), e, w, s)
			if m.wrong < 1 {
				t.Fatalf("corrupted output not detected: attempted=%d wrong=%d", m.attempted, m.wrong)
			}
			timed := len(m.latencies(false, 0, 1)) + len(m.latencies(true, 0, 1))
			if timed != m.attempted-m.failed() {
				t.Fatalf("%d jobs timed, want %d (attempted %d - failed %d)", timed, m.attempted-m.failed(), m.attempted, m.failed())
			}
		})
	}
}

// TestGoldenDigests re-runs fresh job 0 of each in-process workload at
// the default seed and full size: its output digest is recorded.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size jobs")
	}
	for _, w := range workloads {
		if w.golden == "" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: DefaultSeed, seconds: 1, out: t.TempDir()}
			e := &env{opts: o, tmp: t.TempDir(), clients: 2}
			s, err := w.setup(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			out := s.Do(context.Background(), s.Fresh(0), nil, 0)
			if out.err != nil || out.digest != w.golden {
				t.Fatalf("digest %s (err %v), recorded %s", out.digest, out.err, w.golden)
			}
		})
	}
}

// TestPatternAtMatchesEnumeration checks the unranking against verify's
// own DFS pre-order on a small space: the windows it names hold the
// patterns RunSpec counts by size.
func TestPatternAtMatchesEnumeration(t *testing.T) {
	sites, err := envelopeSites()
	if err != nil {
		t.Fatal(err)
	}
	if p := patternAt(sites, 5, 0); len(p) != 1 || p[0] != sites[0] {
		t.Fatalf("pattern 0 = %v", p)
	}
	if p := patternAt(sites, 5, 1); len(p) != 2 || p[1] != sites[1] {
		t.Fatalf("pattern 1 = %v", p)
	}
	space, err := envelope.PatternSpace()
	if err != nil {
		t.Fatal(err)
	}
	if p := patternAt(sites, 5, space-1); len(p) != 1 || p[0] != sites[len(sites)-1] {
		t.Fatalf("last pattern = %v", p)
	}
	// A window's per-size counts must match RunSpec's.
	const start, count = 1_234_567, 300
	spec := envelope
	spec.PatternStart, spec.PatternCount = start, count
	out, err := verify.RunSpec(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	by := make([]int, envelope.MaxFlips+1)
	for i := start; i < start+count; i++ {
		by[len(patternAt(sites, 5, i))]++
	}
	for k := range by {
		if by[k] != out.PatternsBy[k] {
			t.Fatalf("size counts %v, RunSpec %v", by, out.PatternsBy)
		}
	}
}

// TestTail pins the tail definition: the highest percentile with at
// least ten samples beyond it, or the maximum for ten samples or fewer.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Fatalf("tail of 1..100 = p%g %g", p, v)
	}
	if p, v := tail(xs[:10]); p != 100 || v != 10 {
		t.Fatalf("tail of 1..10 = p%g %g", p, v)
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code's
// workload and per-layer tables in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %s, code has %s", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, code has %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
}
