package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestCoordinatorHTTPContract pins the coordinator's wire surface — the
// shapes mcctl, the CI fleet smoke and the benchmark decode — over a
// real HTTP listener fronting two workers.
func TestCoordinatorHTTPContract(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	w1, _ := newWorker(t, nil)
	w2, _ := newWorker(t, nil)
	coord, err := NewCoordinator(Config{
		Workers:      []string{w1, w2},
		ShardsPerJob: 4,
		Heartbeat:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	coord.Start()
	ts := httptest.NewServer(NewServer(coord))
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Stats decode into fleet.Stats; workers_usable reaches the pool size.
	var st Stats
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := client.GetJSON(ctx, "/v1/stats", &st); err != nil {
			t.Fatalf("GET /v1/stats: %v", err)
		}
		if st.WorkersUsable == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers_usable = %d after 5s, want 2", st.WorkersUsable)
		}
		time.Sleep(5 * time.Millisecond)
	}

	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":60,"berStar":0.02,"seed":7,"seeds":8,"eofOnly":true,"resetCounters":true}}`
	want := singleNodeResult(t, raw)
	resp, err := client.Submit(ctx, decodeSpec(t, raw), -1)
	if err != nil {
		t.Fatalf("POST /v1/jobs?wait=true: %v", err)
	}
	if resp.Status.State != serve.StateDone {
		t.Fatalf("fleet job %s: %s", resp.Status.State, resp.Status.Error)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, resp.Status.Result); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("HTTP fleet result differs from single-node run\nfleet:  %.200s\nsingle: %.200s", got.String(), want)
	}

	var view JobView
	if err := client.GetJSON(ctx, "/v1/jobs/"+string(resp.ID), &view); err != nil {
		t.Fatalf("GET /v1/jobs/{id}: %v", err)
	}
	done := 0
	for _, sh := range view.Shards {
		if sh.State == ShardDone {
			done++
		}
	}
	if view.ID != resp.ID || view.State != serve.StateDone || done < 2 {
		t.Fatalf("job view id=%s state=%s with %d done shards, want done with >= 2", view.ID.Short(), view.State, done)
	}

	if err := client.GetJSON(ctx, "/v1/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.WorkersUsable != 2 || len(st.Workers) != 2 || st.Shards.Dispatched < 2 {
		t.Fatalf("stats after one job: usable=%d workers=%d dispatched=%d",
			st.WorkersUsable, len(st.Workers), st.Shards.Dispatched)
	}

	metrics, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintProm(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("coordinator /metrics fails lint: %v", err)
	}
	if !strings.Contains(string(metrics), "\nmc_jobs_executed_total 1\n") {
		t.Fatalf("coordinator /metrics lacks mc_jobs_executed_total 1:\n%s", metrics)
	}

	trace, err := client.Trace(ctx, resp.ID)
	if err != nil {
		t.Fatalf("GET /v1/jobs/{id}/trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
		}
	}
	for _, name := range []string{"fleet job", "dispatch", "worker run"} {
		if names[name] == 0 {
			t.Fatalf("trace lacks a %q span; spans %v", name, names)
		}
	}

	var fv FleetView
	if err := client.GetJSON(ctx, "/v1/fleet", &fv); err != nil {
		t.Fatal(err)
	}
	if len(fv.Workers) != 2 || fv.Workers[0].URL != w1 || fv.Workers[1].URL != w2 {
		t.Fatalf("/v1/fleet workers = %+v, want %s and %s", fv.Workers, w1, w2)
	}

	var ae *serve.APIError
	if err := client.GetJSON(ctx, "/v1/jobs/not-a-digest", &view); !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
		t.Fatalf("malformed id: err = %v, want 404", err)
	}

	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	other := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":60,"berStar":0.02,"seed":99,"seeds":8,"eofOnly":true,"resetCounters":true}}`
	if _, err := client.Submit(ctx, decodeSpec(t, other), 0); !errors.As(err, &ae) || ae.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: err = %v, want 503", err)
	}
}

// TestCoordinatorMetricsIncludeScheduler pins the coordinator's /metrics
// as the scheduler's exposition plus the fleet-only series: a journaled
// coordinator reports its journal and storage state like a single node,
// and no family is declared twice.
func TestCoordinatorMetricsIncludeScheduler(t *testing.T) {
	w, _ := newWorker(t, nil)
	coord, err := NewCoordinator(Config{
		Workers:     []string{w},
		JournalPath: filepath.Join(t.TempDir(), "journal.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	ts := httptest.NewServer(NewServer(coord))
	t.Cleanup(ts.Close)
	metrics, err := serve.NewClient(ts.URL).MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintProm(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("coordinator /metrics fails lint: %v", err)
	}
	types := make(map[string]int)
	for _, line := range strings.Split(string(metrics), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types[strings.Fields(name)[0]]++
		}
	}
	for name, n := range types {
		if n > 1 {
			t.Errorf("family %s declared %d times", name, n)
		}
	}
	for _, want := range []string{
		"\nmc_journal_enabled 1\n",
		"\nmc_storage_degraded{store=\"journal\"} 0\n",
		"\nmc_fleet_workers 1\n",
		"\nmc_fleet_shards_dispatched_total 0\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("coordinator /metrics lacks %q:\n%s", strings.TrimSpace(want), metrics)
		}
	}
}
