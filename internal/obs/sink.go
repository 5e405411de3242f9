package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"reflect"
	"sort"
	"sync"
)

// Memory is a sink that records events in memory, for tests, probes and
// post-run merging. Safe for concurrent use.
type Memory struct {
	mu     sync.Mutex
	events []Event
}

var _ Sink = (*Memory)(nil)

// NewMemory creates an empty in-memory sink.
func NewMemory() *Memory { return &Memory{} }

// Emit implements Sink.
func (m *Memory) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (m *Memory) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Len returns the number of recorded events.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Count returns how many recorded events have the given kind.
func (m *Memory) Count(k Kind) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Reset discards the recorded events.
func (m *Memory) Reset() {
	m.mu.Lock()
	m.events = nil
	m.mu.Unlock()
}

// Multi fans one event stream out to several sinks; nil entries are
// skipped. It returns nil when no sink remains, so callers can pass the
// result straight to an optional-telemetry field.
func Multi(sinks ...Sink) Sink {
	out := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s == nil {
			continue
		}
		// A nil *Metrics (or other pointer sink) arriving through the
		// interface is not == nil; drop it too so optional sinks can be
		// passed without wrapping.
		if v := reflect.ValueOf(s); v.Kind() == reflect.Pointer && v.IsNil() {
			continue
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// LockedSink serialises Emit calls with a mutex, adapting a
// single-producer sink (e.g. a Ring) for multiple concurrent producers —
// the shape a parallel sweep needs to feed one live event stream. The
// interleaving across producers is scheduling-dependent, so a locked
// stream is for live observation, not for canonical logs (use per-point
// Memory sinks merged with WriteJSONL for those).
type LockedSink struct {
	mu   sync.Mutex
	sink Sink
}

var _ Sink = (*LockedSink)(nil)

// Locked wraps sink for multi-producer emission; a nil sink yields nil.
func Locked(sink Sink) *LockedSink {
	if sink == nil {
		return nil
	}
	return &LockedSink{sink: sink}
}

// Emit implements Sink.
func (l *LockedSink) Emit(e Event) {
	l.mu.Lock()
	l.sink.Emit(e)
	l.mu.Unlock()
}

// SortEvents sorts events by slot, then station, with the remaining
// fields as tie-breakers so the order is total over event values. Within
// one deterministic run the emission order is already reproducible;
// sorting gives a canonical order for serialised logs so that merged
// multi-worker output is byte-identical regardless of scheduling.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		switch {
		case a.Slot != b.Slot:
			return a.Slot < b.Slot
		case a.Station != b.Station:
			return a.Station < b.Station
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Attempt != b.Attempt:
			return a.Attempt < b.Attempt
		case a.Cause != b.Cause:
			return a.Cause < b.Cause
		case a.Flags != b.Flags:
			return a.Flags < b.Flags
		default:
			return a.Aux < b.Aux
		}
	})
}

// jsonlEvent is the JSONL wire form of an event. Field order is fixed by
// the struct, so identical event streams serialise byte-identically.
type jsonlEvent struct {
	Run      int64  `json:"run"`
	Slot     uint64 `json:"slot"`
	Station  int    `json:"station"`
	Kind     string `json:"kind"`
	Cause    string `json:"cause,omitempty"`
	Tx       bool   `json:"transmitter,omitempty"`
	Passive  bool   `json:"passive,omitempty"`
	Rejected bool   `json:"rejected,omitempty"`
	Attempt  uint16 `json:"attempt,omitempty"`
	Aux      uint32 `json:"aux,omitempty"`
}

// JSONLWriter is a streaming sink writing one JSON object per line. Lines
// carry a run tag (the seed of the run that produced them) so merged
// sweep logs remain attributable. Safe for concurrent use; check Err or
// the Flush result for write failures.
type JSONLWriter struct {
	mu     sync.Mutex
	w      *bufio.Writer
	run    int64
	err    error
	onLine func()
}

var _ Sink = (*JSONLWriter)(nil)

// NewJSONLWriter creates a JSONL sink tagging every line with the given
// run id.
func NewJSONLWriter(w io.Writer, run int64) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w), run: run}
}

// NewJSONLStream creates a JSONL sink for live streaming: every line is
// flushed through to w as it is emitted, and onLine (if non-nil) runs
// after each line — the hook an HTTP handler uses to push the chunk to
// the client (http.Flusher). This is the NDJSON adapter behind the
// simulation service's /v1/jobs/{id}/events endpoint.
func NewJSONLStream(w io.Writer, run int64, onLine func()) *JSONLWriter {
	j := NewJSONLWriter(w, run)
	j.onLine = onLine
	return j
}

// Emit implements Sink.
func (j *JSONLWriter) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := json.Marshal(jsonlEvent{
		Run:      j.run,
		Slot:     e.Slot,
		Station:  int(e.Station),
		Kind:     e.Kind.String(),
		Cause:    CauseName(e.Cause),
		Tx:       e.Transmitter(),
		Passive:  e.Passive(),
		Rejected: e.Rejected(),
		Attempt:  e.Attempt,
		Aux:      e.Aux,
	})
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(line); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
	if j.onLine != nil {
		if j.err == nil {
			j.err = j.w.Flush()
		}
		j.onLine()
	}
}

// Err returns the first write error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Flush writes buffered lines through and returns the first error seen.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// WriteJSONL canonically sorts a run's events (slot, then station) and
// writes them as run-tagged JSONL. This is the merge primitive for
// sweeps: calling it once per point in seed order yields byte-identical
// output for any worker count.
func WriteJSONL(w io.Writer, run int64, events []Event) error {
	sorted := append([]Event(nil), events...)
	SortEvents(sorted)
	jw := NewJSONLWriter(w, run)
	for _, e := range sorted {
		jw.Emit(e)
	}
	return jw.Flush()
}
