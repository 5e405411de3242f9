package serve

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// ErrJobRunning reports a trace request for a job that has not reached
// a terminal state; the timeline is only complete at completion.
var ErrJobRunning = errors.New("serve: job not finished; trace is available at completion")

// BuildTrace renders a finished job's end-to-end timeline as a Perfetto
// trace: a service track group with the root job span, the queue wait,
// the execution attempt and the durability phases (journal appends,
// checkpoint saves, the cache put), plus a protocol track group with
// the per-station spans synthesised from the job's captured event
// stream. Timestamps are microseconds relative to the job's submission;
// the bit slots are scaled to fit the attempt's wall duration, so the
// protocol timeline nests under the attempt span.
func BuildTrace(j *Job) (*span.Trace, error) {
	j.mu.Lock()
	state := j.state
	phases := append([]jobPhase(nil), j.phases...)
	submitted, started, finished := j.submitted, j.started, j.finished
	cached := j.cached
	recovered := j.recovered
	errMsg := j.errMsg
	j.mu.Unlock()
	if state != StateDone && state != StateFailed {
		return nil, ErrJobRunning
	}

	t0 := submitted
	if t0.IsZero() {
		// Cached and resynthesized records carry no queue timestamps;
		// anchor the (empty) timeline at whatever timestamps exist.
		t0 = started
	}
	us := func(t time.Time) float64 {
		if t.IsZero() || t.Before(t0) {
			return 0
		}
		return float64(t.Sub(t0).Microseconds())
	}

	tr := &span.Trace{}
	tr.Process(0, "service", 0)
	tr.Thread(0, 0, "job")
	tr.Thread(0, 1, "durability")

	rootArgs := map[string]any{
		"id":    j.digest.Short(),
		"kind":  string(j.spec.Kind),
		"state": string(state),
	}
	if cached {
		rootArgs["cached"] = true
	}
	if recovered {
		rootArgs["recovered"] = true
	}
	if errMsg != "" {
		rootArgs["error"] = errMsg
	}
	var capturedEvents []obs.Event
	if j.capture != nil {
		capturedEvents = j.capture.Events()
		rootArgs["events_captured"] = len(capturedEvents)
		if d := j.capture.Dropped(); d > 0 {
			rootArgs["events_beyond_capture"] = d
		}
	}
	if j.ring != nil {
		if d := j.ring.Dropped(); d > 0 {
			rootArgs["stream_events_dropped"] = d
		}
	}
	// The root span spans submission to completion — the same timestamps
	// JobStatus derives queuedMs and runMs from, so the trace and the
	// stats agree exactly.
	tr.Add(span.Span{
		Name: "job", Cat: "service", Pid: 0, Tid: 0,
		Start: 0, Dur: us(finished), Args: rootArgs,
	})
	if !started.IsZero() && !submitted.IsZero() {
		tr.Add(span.Span{
			Name: "queue wait", Cat: "service", Pid: 0, Tid: 0,
			Start: 0, Dur: us(started),
			Args: map[string]any{"shard": j.shard},
		})
	}

	var run *jobPhase // the execution attempt's wall window
	for i, p := range phases {
		if p.name == "attempt" {
			run = &phases[i]
			tr.Add(span.Span{
				Name: "attempt", Cat: "service", Pid: 0, Tid: 0,
				Start: us(p.start), Dur: us(p.end) - us(p.start),
			})
			continue
		}
		tr.Add(span.Span{
			Name: p.name, Cat: "durability", Pid: 0, Tid: 1,
			Start: us(p.start), Dur: us(p.end) - us(p.start),
		})
	}

	// The protocol timeline: the captured stream, scaled into the
	// attempt's wall window.
	if len(capturedEvents) > 0 {
		offset, slotMicros := us(started), 1.0
		if run != nil {
			offset = us(run.start)
			if extent, wall := span.Extent(capturedEvents), us(run.end)-us(run.start); extent > 0 && wall > 0 {
				slotMicros = wall / float64(extent)
			}
		}
		span.AddProtocol(tr, capturedEvents, span.ProtocolOptions{
			Pid:        1,
			Label:      "protocol",
			SortIndex:  1,
			Offset:     offset,
			SlotMicros: slotMicros,
		})
	}
	return tr, nil
}
