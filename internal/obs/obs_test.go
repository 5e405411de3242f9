package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindFrameStart:         "frame-start",
		KindArbitrationLoss:    "arbitration-loss",
		KindStuffError:         "stuff-error",
		KindErrorFlagPrimary:   "error-flag-primary",
		KindErrorFlagSecondary: "error-flag-secondary",
		KindEOFVoteCorrected:   "eof-vote-corrected",
		KindRetransmit:         "retransmit",
		KindFrameAccepted:      "frame-accepted",
		KindIMO:                "imo",
		KindBusOff:             "bus-off",
		KindRecover:            "recover",
		KindStorageDegraded:    "storage-degraded",
		KindJournalRecovered:   "journal-recovered",
		KindCheckpointSaved:    "checkpoint-saved",
		KindCheckpointResumed:  "checkpoint-resumed",
		KindEOFVote:            "eof-vote",
		KindRingOverflow:       "ring-overflow",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if !KindErrorFlagPrimary.ErrorFlag() || !KindErrorFlagSecondary.ErrorFlag() {
		t.Error("error-flag kinds must report ErrorFlag()")
	}
	if KindFrameStart.ErrorFlag() {
		t.Error("frame-start must not report ErrorFlag()")
	}
}

func TestRingOrderAndOverflow(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 100; i++ {
		r.Emit(Event{Slot: uint64(i), Kind: KindFrameStart})
	}
	if r.Dropped() != 100-64 {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), 100-64)
	}
	mem := NewMemory()
	n := r.Drain(mem)
	if n != 64 || mem.Len() != 64 {
		t.Fatalf("Drain delivered %d events, want 64", n)
	}
	for i, e := range mem.Events() {
		if e.Slot != uint64(i) {
			t.Fatalf("event %d has slot %d, want %d (FIFO order)", i, e.Slot, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain: %d", r.Len())
	}
}

// TestRingSPSC exercises the ring with a concurrent producer and
// consumer; run under -race this validates the atomic head/tail
// discipline.
func TestRingSPSC(t *testing.T) {
	r := NewRing(256)
	const total = 20000
	var got []Event
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sink := SinkFunc(func(e Event) { got = append(got, e) })
		for len(got)+int(r.Dropped()) < total {
			r.Drain(sink)
		}
	}()
	for i := 0; i < total; i++ {
		r.Emit(Event{Slot: uint64(i), Kind: KindRetransmit})
	}
	wg.Wait()
	if len(got)+int(r.Dropped()) != total {
		t.Fatalf("consumed %d + dropped %d != produced %d", len(got), r.Dropped(), total)
	}
	var prev uint64
	for i, e := range got {
		if i > 0 && e.Slot <= prev {
			t.Fatalf("out-of-order delivery at %d: slot %d after %d", i, e.Slot, prev)
		}
		prev = e.Slot
	}
}

func TestMetricsEmitAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.SetLabel("majorcan_5")
	m.Emit(Event{Kind: KindFrameStart})
	m.Emit(Event{Kind: KindArbitrationLoss})
	m.Emit(Event{Kind: KindStuffError, Cause: 2})
	m.Emit(Event{Kind: KindErrorFlagPrimary, Cause: 2})
	m.Emit(Event{Kind: KindErrorFlagPrimary, Cause: 4})
	m.Emit(Event{Kind: KindErrorFlagSecondary, Cause: 1})
	m.Emit(Event{Kind: KindEOFVoteCorrected, Aux: 4})
	m.Emit(Event{Kind: KindRetransmit})
	m.Emit(Event{Kind: KindFrameAccepted})
	m.Emit(Event{Kind: KindIMO})
	m.Emit(Event{Kind: KindBusOff})
	m.Emit(Event{Kind: KindRecover})
	m.AddBits(4000)
	m.AddFramesSent(2)
	m.ObserveFrameRetransmits(1)
	m.ObserveFrameRetransmits(7)
	m.ObserveSettleLatency(130)
	m.ObserveSettleLatency(9000)

	s := m.Snapshot(2 * time.Second)
	if s.Policy != "majorcan_5" {
		t.Errorf("policy = %q", s.Policy)
	}
	if s.FramesStarted != 1 || s.ArbitrationLosses != 1 || s.StuffErrors != 1 {
		t.Errorf("counters wrong: %+v", s)
	}
	if s.ErrorFlagsPrimary != 2 || s.ErrorFlagsSecondary != 1 {
		t.Errorf("flag split wrong: primary=%d secondary=%d", s.ErrorFlagsPrimary, s.ErrorFlagsSecondary)
	}
	if s.ErrorFlagsByCause["stuff"] != 1 || s.ErrorFlagsByCause["form"] != 1 || s.ErrorFlagsByCause["bit"] != 1 {
		t.Errorf("by-cause wrong: %v", s.ErrorFlagsByCause)
	}
	if s.EOFVoteCorrected != 1 || s.Retransmits != 1 || s.FramesAccepted != 1 ||
		s.IMOs != 1 || s.BusOffs != 1 || s.Recoveries != 1 {
		t.Errorf("counters wrong: %+v", s)
	}
	if s.BitsSimulated != 4000 || s.FramesSent != 2 {
		t.Errorf("direct counters wrong: bits=%d frames=%d", s.BitsSimulated, s.FramesSent)
	}
	if s.FramesPerSecond != 1 || s.BitsPerSecond != 2000 {
		t.Errorf("rates wrong: %f f/s %f b/s", s.FramesPerSecond, s.BitsPerSecond)
	}
	if s.RetransmitsPerFrame.Count != 2 || s.RetransmitsPerFrame.Sum != 8 {
		t.Errorf("retransmit hist wrong: %+v", s.RetransmitsPerFrame)
	}
	if s.SettleLatencySlots.Count != 2 || s.SettleLatencySlots.Sum != 9130 {
		t.Errorf("settle hist wrong: %+v", s.SettleLatencySlots)
	}
	last := s.SettleLatencySlots.Buckets[len(s.SettleLatencySlots.Buckets)-1]
	if last.Le != "+inf" || last.Count != 1 {
		t.Errorf("overflow bucket wrong: %+v", last)
	}
}

// TestSnapshotJSONFieldNames pins the snake_case field contract consumed
// by EXPERIMENTS.md recipes — in particular eof_vote_corrected, the
// acceptance-criterion field.
func TestSnapshotJSONFieldNames(t *testing.T) {
	m := NewMetrics()
	m.Emit(Event{Kind: KindEOFVoteCorrected})
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"eof_vote_corrected", "bits_simulated", "frames_sent",
		"error_flags_by_cause", "retransmits_per_frame", "settle_latency_slots",
		"imos", "retransmits",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("snapshot JSON missing field %q", field)
		}
	}
	if raw["eof_vote_corrected"].(float64) != 1 {
		t.Errorf("eof_vote_corrected = %v, want 1", raw["eof_vote_corrected"])
	}
}

// TestMetricsForkPropagation verifies the errmodel.Random-style parent
// chain: updates on concurrent forks are live-visible on the parent, and
// no final merge is needed.
func TestMetricsForkPropagation(t *testing.T) {
	parent := NewMetrics()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		fork := parent.Fork()
		wg.Add(1)
		go func(m *Metrics) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.AddFramesSent(1)
				m.Emit(Event{Kind: KindRetransmit})
				m.ObserveFrameRetransmits(2)
			}
		}(fork)
	}
	wg.Wait()
	s := parent.Snapshot(0)
	if s.FramesSent != workers*perWorker {
		t.Errorf("frames_sent = %d, want %d", s.FramesSent, workers*perWorker)
	}
	if s.Retransmits != workers*perWorker {
		t.Errorf("retransmits = %d, want %d", s.Retransmits, workers*perWorker)
	}
	if s.RetransmitsPerFrame.Count != workers*perWorker {
		t.Errorf("hist count = %d, want %d", s.RetransmitsPerFrame.Count, workers*perWorker)
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.AddBits(100)
	a.Emit(Event{Kind: KindErrorFlagPrimary, Cause: 3})
	b.AddBits(50)
	b.Emit(Event{Kind: KindErrorFlagPrimary, Cause: 3})
	b.ObserveSettleLatency(200)
	a.Merge(b)
	s := a.Snapshot(0)
	if s.BitsSimulated != 150 {
		t.Errorf("bits = %d, want 150", s.BitsSimulated)
	}
	if s.ErrorFlagsByCause["crc"] != 2 {
		t.Errorf("crc flags = %d, want 2", s.ErrorFlagsByCause["crc"])
	}
	if s.SettleLatencySlots.Count != 1 {
		t.Errorf("settle count = %d, want 1", s.SettleLatencySlots.Count)
	}
}

func TestMultiSink(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils must be nil")
	}
	if Multi(nil, (*Metrics)(nil)) != nil {
		t.Error("Multi must drop typed-nil sinks")
	}
	m := NewMemory()
	if Multi(nil, m, nil) != Sink(m) {
		t.Error("Multi with one live sink must return it directly")
	}
	m2 := NewMemory()
	s := Multi(m, m2)
	s.Emit(Event{Kind: KindIMO})
	if m.Len() != 1 || m2.Len() != 1 {
		t.Error("Multi must fan out to all sinks")
	}
}

// TestWriteJSONLDeterminism shuffles one event set into different
// emission orders and checks the canonical serialisation is
// byte-identical — the property the sweep merge relies on.
func TestWriteJSONLDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]Event, 200)
	for i := range events {
		events[i] = Event{
			Slot:    uint64(rng.Intn(50)),
			Kind:    KindRetransmit,
			Station: int16(rng.Intn(5)),
			Attempt: uint16(i),
		}
	}
	var ref bytes.Buffer
	if err := WriteJSONL(&ref, 42, events); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var out bytes.Buffer
		if err := WriteJSONL(&out, 42, shuffled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), out.Bytes()) {
			t.Fatalf("trial %d: serialisation differs for same event set", trial)
		}
	}
	first := strings.SplitN(ref.String(), "\n", 2)[0]
	var line map[string]any
	if err := json.Unmarshal([]byte(first), &line); err != nil {
		t.Fatalf("line not valid JSON: %v", err)
	}
	if line["run"].(float64) != 42 {
		t.Errorf("run tag = %v, want 42", line["run"])
	}
	if line["kind"].(string) != "retransmit" {
		t.Errorf("kind = %v", line["kind"])
	}
}

func TestJSONLWriterOmitsZeroFields(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf, 1)
	jw.Emit(Event{Slot: 10, Kind: KindFrameStart, Station: 2})
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, absent := range []string{"cause", "transmitter", "passive", "attempt", "aux"} {
		if strings.Contains(s, absent) {
			t.Errorf("zero-valued field %q serialised: %s", absent, s)
		}
	}
}

func TestProgress(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	lockedW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var n atomic.Uint64
	p := StartProgress(lockedW, 100, n.Load, time.Millisecond, "")
	n.Store(40)
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "40/100 frames") {
		t.Errorf("progress output missing count: %q", out)
	}
	if !strings.Contains(out, "frames/s") {
		t.Errorf("progress output missing rate: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestEventRejectedFlag(t *testing.T) {
	e := Event{Kind: KindEOFVote, Flags: FlagRejected}
	if !e.Rejected() || e.Transmitter() || e.Passive() {
		t.Errorf("flag decoding wrong: %+v", e)
	}
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf, 0)
	jw.Emit(e)
	jw.Emit(Event{Kind: KindEOFVote})
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"rejected":true`) {
		t.Errorf("rejected flag not serialised: %s", lines[0])
	}
	if strings.Contains(lines[1], "rejected") {
		t.Errorf("zero rejected field serialised: %s", lines[1])
	}
}

func TestCapture(t *testing.T) {
	c := NewCapture(3)
	for i := 0; i < 5; i++ {
		c.Emit(Event{Slot: uint64(i), Kind: KindFrameStart})
	}
	if c.Len() != 3 || c.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 3 and 2", c.Len(), c.Dropped())
	}
	for i, e := range c.Events() {
		if e.Slot != uint64(i) {
			t.Fatalf("capture must keep the prefix: event %d has slot %d", i, e.Slot)
		}
	}
	if NewCapture(0).max != 1 {
		t.Error("capacity floor must be 1")
	}
}

func TestRingOnFirstDrop(t *testing.T) {
	r := NewRing(64)
	var fired atomic.Uint64
	r.OnFirstDrop(func() { fired.Add(1) })
	for i := 0; i < 64; i++ {
		r.Emit(Event{Kind: KindFrameStart})
	}
	if fired.Load() != 0 {
		t.Fatal("hook fired before any drop")
	}
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: KindFrameStart})
	}
	if fired.Load() != 1 {
		t.Fatalf("hook fired %d times, want exactly once", fired.Load())
	}
	if r.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10", r.Dropped())
	}
	if r.Cap() != 64 {
		t.Fatalf("Cap = %d, want 64", r.Cap())
	}
}

func TestPromWriterPassesLint(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("mc_jobs_total", "counter", "Jobs by final state.")
	p.Sample("mc_jobs_total", []Label{{Name: "state", Value: "succeeded"}}, 12)
	p.Sample("mc_jobs_total", []Label{{Name: "state", Value: "failed"}}, 1)
	p.Family("mc_queue_depth", "gauge", "Queued jobs per shard.")
	p.Sample("mc_queue_depth", []Label{{Name: "shard", Value: "0"}}, 3)
	p.Histogram("mc_latency_ms", "Job latency.", h.State())
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := LintProm(strings.NewReader(out)); err != nil {
		t.Fatalf("writer output failed lint: %v\n%s", err, out)
	}
	// Buckets must be cumulative and the +Inf bucket equal _count.
	if !strings.Contains(out, `mc_latency_ms_bucket{le="10"} 1`) ||
		!strings.Contains(out, `mc_latency_ms_bucket{le="100"} 2`) ||
		!strings.Contains(out, `mc_latency_ms_bucket{le="+Inf"} 3`) ||
		!strings.Contains(out, "mc_latency_ms_count 3") ||
		!strings.Contains(out, "mc_latency_ms_sum 5055") {
		t.Errorf("histogram rendering wrong:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE mc_jobs_total counter") {
		t.Errorf("missing TYPE line:\n%s", out)
	}
}

func TestPromWriterRejectsDuplicateFamily(t *testing.T) {
	p := NewPromWriter(&bytes.Buffer{})
	p.Family("mc_x", "gauge", "x")
	p.Family("mc_x", "gauge", "x")
	if p.Err() == nil {
		t.Fatal("duplicate family must error")
	}
}

func TestPromWriterEscapesLabels(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("mc_x", "gauge", "x")
	p.Sample("mc_x", []Label{{Name: "path", Value: `a"b\c` + "\n"}}, 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := LintProm(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("escaped label failed lint: %v\n%s", err, buf.String())
	}
}

func TestLintPromCatchesFormatErrors(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "mc_x 1\n",
		"bad type":             "# TYPE mc_x histo\nmc_x 1\n",
		"bad value":            "# TYPE mc_x gauge\nmc_x one\n",
		"duplicate series":     "# TYPE mc_x gauge\nmc_x 1\nmc_x 2\n",
		"duplicate TYPE":       "# TYPE mc_x gauge\n# TYPE mc_x gauge\nmc_x 1\n",
		"bad label name":       "# TYPE mc_x gauge\nmc_x{9bad=\"v\"} 1\n",
		"unquoted label value": "# TYPE mc_x gauge\nmc_x{a=v} 1\n",
		"bucket without le":    "# TYPE mc_h histogram\nmc_h_bucket 1\nmc_h_count 1\n",
		"non-cumulative hist":  "# TYPE mc_h histogram\nmc_h_bucket{le=\"1\"} 5\nmc_h_bucket{le=\"+Inf\"} 3\nmc_h_count 3\n",
		"missing +Inf bucket":  "# TYPE mc_h histogram\nmc_h_bucket{le=\"1\"} 1\nmc_h_count 1\n",
		"count != +Inf bucket": "# TYPE mc_h histogram\nmc_h_bucket{le=\"+Inf\"} 2\nmc_h_count 3\n",
		"garbage line":         "# TYPE mc_x gauge\n{} mc_x 1\n",
	}
	for name, in := range cases {
		if err := LintProm(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, in)
		}
	}
	valid := "# HELP mc_x a help line\n# TYPE mc_x gauge\nmc_x{a=\"v\"} 1.5\nmc_x 2\n\n# free comment\nmc_x{a=\"w\"} +Inf\n"
	if err := LintProm(strings.NewReader(valid)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

func TestStatusLine(t *testing.T) {
	var buf bytes.Buffer
	s := NewStatusLine(&buf)
	s.Update("a long first line")
	s.Update("short")
	s.Close("done")
	out := buf.String()
	if !strings.Contains(out, "\rshort") {
		t.Errorf("missing in-place update: %q", out)
	}
	// The shorter line must be padded over the longer one's remains.
	if !strings.Contains(out, "short        ") {
		t.Errorf("missing blanking padding: %q", out)
	}
	if !strings.HasSuffix(out, "done\n") {
		t.Errorf("Close must end with a newline-terminated line: %q", out)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	for _, format := range []string{"", "text"} {
		buf.Reset()
		lg, err := NewLogger(&buf, format, 0)
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		lg.Info("hello", "k", "v")
		if !strings.Contains(buf.String(), "msg=hello") || !strings.Contains(buf.String(), "k=v") {
			t.Errorf("format %q output: %q", format, buf.String())
		}
	}
	buf.Reset()
	lg, err := NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("json log line not JSON: %v: %q", err, buf.String())
	}
	if line["msg"] != "hello" || line["k"] != "v" {
		t.Errorf("json log fields wrong: %v", line)
	}
	if _, err := NewLogger(&buf, "yaml", 0); err == nil {
		t.Error("unknown format must error")
	}
}
