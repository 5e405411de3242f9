package span_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// fig3aEvents replays the checked-in Fig. 3a counterexample with full
// instrumentation and returns its event stream.
func fig3aEvents(t *testing.T) []obs.Event {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "chaos", "testdata", "fig3a_shrunk.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := chaos.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemory()
	rr, err := chaos.Replay(context.Background(), a, chaos.Telemetry{Events: mem})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Matches() {
		t.Fatal("fig3a replay diverged")
	}
	return mem.Events()
}

// TestWriteDeterministic shuffles one span set into different insertion
// orders and checks the serialisation is byte-identical — the property
// the golden file relies on.
func TestWriteDeterministic(t *testing.T) {
	spans := []span.Span{
		{Name: "root", Pid: 1, Tid: 0, Start: 0, Dur: 100},
		{Name: "a", Pid: 1, Tid: 1, Start: 10, Dur: 20, Args: map[string]any{"k": 1, "b": "x"}},
		{Name: "b", Pid: 1, Tid: 1, Start: 10, Dur: 5},
		{Name: "c", Cat: "x", Pid: 2, Tid: 0, Start: 10, Dur: 5},
	}
	render := func(order []int) string {
		var tr span.Trace
		tr.Process(2, "second", 2)
		tr.Process(1, "first", 1)
		tr.Thread(1, 1, "t")
		tr.Thread(1, 1, "t-duplicate-ignored")
		for _, i := range order {
			tr.Add(spans[i])
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := render([]int{0, 1, 2, 3})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		order := rng.Perm(len(spans))
		if got := render(order); got != ref {
			t.Fatalf("trial %d: serialisation differs for insertion order %v", trial, order)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(ref), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	events := doc["traceEvents"].([]any)
	// Metadata first, then the longest span at the earliest start.
	first := events[0].(map[string]any)
	if first["ph"] != "M" {
		t.Errorf("first entry not metadata: %v", first)
	}
	var firstX map[string]any
	for _, e := range events {
		m := e.(map[string]any)
		if m["ph"] == "X" {
			firstX = m
			break
		}
	}
	if firstX["name"] != "root" {
		t.Errorf("first slice = %v, want the root span", firstX["name"])
	}
	// The duplicate thread declaration must be dropped.
	threads := 0
	for _, e := range events {
		if e.(map[string]any)["name"] == "thread_name" {
			threads++
		}
	}
	if threads != 1 {
		t.Errorf("thread_name entries = %d, want 1", threads)
	}
}

// TestProtocolSynthesis checks the span shapes on a disturbed
// single-frame broadcast: one frame span per transmission attempt on
// the bus track, per-station eof-vote spans with the right verdicts,
// and an error-flag/retransmit cycle between the attempts.
func TestProtocolSynthesis(t *testing.T) {
	mem := obs.NewMemory()
	if _, err := chaos.Run(context.Background(), chaos.Script{
		Version:  chaos.ScriptVersion,
		Protocol: "can",
		Nodes:    3,
		Frames:   1,
		Faults: []chaos.Fault{
			{Kind: chaos.ViewFlip, Station: 1, EOFRel: 1, Attempt: 1},
		},
	}, chaos.Telemetry{Events: mem}); err != nil {
		t.Fatal(err)
	}
	var tr span.Trace
	span.AddProtocol(&tr, mem.Events(), span.ProtocolOptions{Pid: 1})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			counts[e.Name]++
		}
	}
	// The disturbed attempt is rejected everywhere and retransmitted, so
	// two frame spans; 3 stations reject once and accept once each.
	if counts["frame"] != 2 {
		t.Errorf("frame spans = %d, want 2 (disturbed attempt + retransmission)", counts["frame"])
	}
	if counts["eof-vote reject"] != 3 || counts["eof-vote accept"] != 3 {
		t.Errorf("eof-vote spans reject=%d accept=%d, want 3 and 3",
			counts["eof-vote reject"], counts["eof-vote accept"])
	}
	if counts["retransmit"] != 1 {
		t.Errorf("retransmit spans = %d, want 1", counts["retransmit"])
	}
	if counts["error-flag"] == 0 {
		t.Error("no error-flag spans")
	}
	if counts["eof"] != 2 || counts["data"] != 2 {
		t.Errorf("phase spans eof=%d data=%d, want 2 and 2", counts["eof"], counts["data"])
	}
	// Every eof-vote span must nest inside some frame span.
	type iv struct{ s, e float64 }
	var frames []iv
	for _, e := range doc.TraceEvents {
		if e.Name == "frame" {
			frames = append(frames, iv{e.Ts, e.Ts + e.Dur})
		}
	}
	for _, e := range doc.TraceEvents {
		if !strings.HasPrefix(e.Name, "eof-vote") {
			continue
		}
		inside := false
		for _, f := range frames {
			if e.Ts >= f.s && e.Ts+e.Dur <= f.e {
				inside = true
			}
		}
		if !inside {
			t.Errorf("eof-vote span at [%v, %v] outside every frame span %v", e.Ts, e.Ts+e.Dur, frames)
		}
	}
}

// TestFig3aGoldenTrace pins the byte-exact Perfetto export of the
// checked-in Fig. 3a replay: the timeline a trace download renders for
// the paper's canonical inconsistency scenario. Run with -update to
// regenerate after an intentional format change.
func TestFig3aGoldenTrace(t *testing.T) {
	events := fig3aEvents(t)
	var tr span.Trace
	span.AddProtocol(&tr, events, span.ProtocolOptions{Pid: 1})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig3a_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/obs/span -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace export drifted from golden file (len %d vs %d); "+
			"inspect and regenerate with -update if intentional", buf.Len(), len(want))
	}
	// The golden must stay a loadable trace document with the scenario's
	// signature: an imo on the bus track and at least one reject vote.
	var doc map[string]any
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatalf("golden not valid JSON: %v", err)
	}
	s := string(want)
	for _, needle := range []string{`"imo"`, `"eof-vote reject"`, `"error-flag"`, `"process_name"`} {
		if !strings.Contains(s, needle) {
			t.Errorf("golden trace missing %s", needle)
		}
	}
}
