package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records, in memory, a span around every public call the
// benchmark makes in a traced run. A nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one recorded call: ids are 1-based indices into tracer.spans.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"startUs"`
	End    float64 `json:"endUs"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span; op is the id shared by all spans of one job (0
// inherits the parent's).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if op == 0 && parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-finished span, e.g. a service phase fetched
// from the program's own trace endpoint, placed on this tracer's clock.
func (t *tracer) add(name string, parent int, start, end float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var op int64
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// at converts a wall-clock time to this tracer's clock.
func (t *tracer) at(ts time.Time) float64 { return float64(ts.Sub(t.t0).Nanoseconds()) / 1e3 }

// snapshot returns a copy of the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name    string
	Count   int
	TotalUs float64 // summed span durations
	SelfUs  float64 // summed durations minus the union of child spans
	MedUs   float64 // median span duration
}

// layerStats folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval covered by its children.
func layerStats(spans []span) []layerStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerStat{}
	durs := map[string][]float64{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalUs += d
		st.SelfUs += d - covered(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]layerStat, 0, len(by))
	for name, st := range by {
		st.MedUs = median(durs[name])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalUs > out[j].TotalUs })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// durations returns the durations (µs) of the spans with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	sort.Float64s(out)
	return out
}
