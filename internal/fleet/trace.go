package fleet

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/span"
	"repro/internal/serve"
)

// Trace renders a finished fleet job's timeline as a Perfetto trace:
// the coordinator track group carries the root job span and the queue
// wait, and each shard gets its own track with its dispatch span plus
// the worker-reported queue/run sub-spans scaled into the dispatch
// window — the coordinator→worker causality in one picture. Timestamps
// are microseconds relative to submission. A cache hit that never ran
// here has no shard tracks.
func (c *Coordinator) Trace(j *serve.Job) (*span.Trace, error) {
	var shards []shardRun
	if r := c.lookup(j.Digest()); r != nil {
		if r.job != nil {
			j = r.job // a later cache hit replaced the record; trace the run
		}
		shards = r.snapshot()
	}
	st := j.Status()
	if st.State != serve.StateDone && st.State != serve.StateFailed {
		return nil, serve.ErrJobRunning
	}
	// A record that never ran here (a cache hit) has no times at all.
	t0, started, finished := j.Times()
	us := func(t time.Time) float64 {
		if t.IsZero() || t.Before(t0) {
			return 0
		}
		return float64(t.Sub(t0).Microseconds())
	}

	tr := &span.Trace{}
	tr.Process(0, "coordinator", 0)
	tr.Thread(0, 0, "job")

	rootArgs := map[string]any{
		"id": st.ID.Short(), "kind": string(st.Kind), "state": string(st.State),
		"shards": len(shards), "cached": st.Cached, "recovered": st.Recovered,
	}
	if st.Error != "" {
		rootArgs["error"] = st.Error
	}
	tr.Add(span.Span{
		Name: "fleet job", Cat: "fleet", Pid: 0, Tid: 0,
		Start: 0, Dur: us(finished), Args: rootArgs,
	})
	if !started.IsZero() {
		tr.Add(span.Span{
			Name: "plan + queue", Cat: "fleet", Pid: 0, Tid: 0,
			Start: 0, Dur: us(started),
		})
	}

	for i, sn := range shards {
		tid := int64(i + 1)
		tr.Thread(0, tid, "shard "+strconv.Itoa(sn.Index))
		args := map[string]any{
			"shard":    sn.Index,
			"digest":   sn.Digest.Short(),
			"state":    string(sn.State),
			"attempts": sn.Attempts,
			"cached":   sn.Cached,
		}
		if _, host, ok := strings.Cut(sn.Worker, "://"); ok {
			args["worker"] = host // host:port is all the identity a timeline needs
		}
		if sn.Error != "" {
			args["error"] = sn.Error
		}
		if sn.Cached || sn.start.IsZero() {
			// Spool-recovered shard: no dispatch window; a zero-width marker
			// at the job start records it was adopted, not run.
			tr.Add(span.Span{
				Name: "dispatch (spooled)", Cat: "fleet", Pid: 0, Tid: tid,
				Start: us(started), Dur: 0, Args: args,
			})
			continue
		}
		dispatchStart, dispatchEnd := us(sn.start), us(sn.end)
		tr.Add(span.Span{
			Name: "dispatch", Cat: "fleet", Pid: 0, Tid: tid,
			Start: dispatchStart, Dur: dispatchEnd - dispatchStart, Args: args,
		})
		// Worker-side phases, anchored to the end of the dispatch window:
		// the worker finished running the shard right before the blocking
		// submit returned, so [end-run, end] approximates execution and the
		// queue wait sits immediately before it. Millisecond-grain numbers
		// from JobStatus, placed on the coordinator's clock.
		runUs := float64(sn.RunMs) * 1000
		queuedUs := float64(sn.QueuedMs) * 1000
		window := dispatchEnd - dispatchStart
		if runUs+queuedUs > window {
			// A reassigned shard's dispatch window can be shorter than the
			// successful attempt's worker-side numbers suggest; clip rather
			// than overhang the track.
			scale := window / (runUs + queuedUs)
			runUs *= scale
			queuedUs *= scale
		}
		if runUs > 0 {
			tr.Add(span.Span{
				Name: "worker run", Cat: "worker", Pid: 0, Tid: tid,
				Start: dispatchEnd - runUs, Dur: runUs,
				Args: map[string]any{"runMs": sn.RunMs},
			})
		}
		if queuedUs > 0 {
			tr.Add(span.Span{
				Name: "worker queue", Cat: "worker", Pid: 0, Tid: tid,
				Start: dispatchEnd - runUs - queuedUs, Dur: queuedUs,
				Args: map[string]any{"queuedMs": sn.QueuedMs},
			})
		}
	}

	if !finished.IsZero() {
		// The merge itself is microseconds of pure CPU; a zero-width marker
		// records where it happened.
		tr.Add(span.Span{
			Name: "merge", Cat: "fleet", Pid: 0, Tid: 0,
			Start: us(finished), Dur: 0,
			Args: map[string]any{"shards": len(shards)},
		})
	}
	return tr, nil
}
