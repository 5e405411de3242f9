package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
)

// ExecOptions carries the execution-side knobs a job run gets from the
// scheduler: knobs that change how fast a job runs and what telemetry it
// emits, never what result it produces — they are invisible to the job
// digest.
type ExecOptions struct {
	// Parallelism bounds concurrent simulations inside one job (sweep
	// points, verify patterns).
	Parallelism int
	// Events, if non-nil, receives the live protocol event stream. Sweep
	// jobs emit from several worker goroutines, so the sink must accept
	// concurrent producers (obs.Locked).
	Events obs.Sink
	// Metrics, if non-nil, aggregates the job's simulation totals;
	// the scheduler passes a fork of its shared registry.
	Metrics *obs.Metrics
	// Checkpoint, if non-nil, lets long-running kinds (sweeps, campaigns)
	// persist batch-boundary progress and resume after a crash. Like the
	// other options it never changes what result a job produces — a
	// checkpoint holds only completed work, so a resumed run is
	// byte-identical to an uninterrupted one.
	Checkpoint *CheckpointIO
}

// CheckpointIO is the progress plumbing a job run gets from the
// scheduler: Load returns the previously persisted payload (if any),
// Save replaces it, Every sets the batch cadence in work units (sweep
// points, campaign trials). Save has no error to return: checkpoints
// are best-effort, and the checkpoint store counts write failures and
// switches itself off after a streak of them.
type CheckpointIO struct {
	Load  func() (json.RawMessage, bool)
	Save  func(json.RawMessage)
	Every int
}

// Runner executes one normalized job spec and returns its canonical JSON
// result. The scheduler's default is Execute; tests substitute stubs.
type Runner func(ctx context.Context, spec *JobSpec, opt ExecOptions) (json.RawMessage, error)

// sweepResume adapts CheckpointIO to the sweep engine's resume contract:
// the persisted payload is the completed seed-order prefix of point
// outcomes. An undecodable payload is ignored — the sweep validates the
// prefix against its own seed stream anyway, so a bad checkpoint can
// only cost work, never corrupt a result.
func sweepResume(ck *CheckpointIO) *sim.SweepResume {
	if ck == nil {
		return nil
	}
	r := &sim.SweepResume{Every: ck.Every}
	if raw, ok := ck.Load(); ok {
		var prior []sim.PointOutcome
		if json.Unmarshal(raw, &prior) == nil {
			r.Prior = prior
		}
	}
	r.Save = func(done []sim.PointOutcome) {
		if b, err := json.Marshal(done); err == nil {
			ck.Save(b)
		}
	}
	return r
}

// campaignResume adapts CheckpointIO to the campaign engine: the payload
// is a CampaignProgress snapshot, persisted every Every trial
// boundaries.
func campaignResume(ck *CheckpointIO) (*chaos.CampaignProgress, func(chaos.CampaignProgress)) {
	if ck == nil {
		return nil, nil
	}
	var resume *chaos.CampaignProgress
	if raw, ok := ck.Load(); ok {
		var p chaos.CampaignProgress
		if json.Unmarshal(raw, &p) == nil {
			resume = &p
		}
	}
	every := ck.Every
	if every < 1 {
		every = 1
	}
	boundaries := 0
	onProgress := func(p chaos.CampaignProgress) {
		boundaries++
		if boundaries%every != 0 {
			return
		}
		if b, err := json.Marshal(p); err == nil {
			ck.Save(b)
		}
	}
	return resume, onProgress
}

// Execute runs one job spec to completion: the default Runner. A
// cancelled or expired ctx fails the job — partial results are never
// returned, so nothing incomplete can reach the content-addressed cache.
func Execute(ctx context.Context, spec *JobSpec, opt ExecOptions) (json.RawMessage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var (
		out any
		err error
	)
	switch spec.Kind {
	case KindSweep:
		var tel sim.PointTelemetry
		if opt.Events != nil || opt.Metrics != nil {
			tel = func(int, int64) (obs.Sink, *obs.Metrics) {
				var m *obs.Metrics
				if opt.Metrics != nil {
					m = opt.Metrics.Fork()
				}
				return opt.Events, m
			}
		}
		out, err = sim.RunSweepSpecResumable(ctx, *spec.Sweep, opt.Parallelism, tel, sweepResume(opt.Checkpoint))
	case KindCampaign:
		resume, onProgress := campaignResume(opt.Checkpoint)
		out, err = chaos.RunCampaignSpecResumable(ctx, *spec.Campaign,
			chaos.Telemetry{Events: opt.Events, Metrics: opt.Metrics}, nil, resume, onProgress)
	case KindVerify:
		out, err = verify.RunSpec(ctx, *spec.Verify, opt.Parallelism)
	case KindScript:
		var r *chaos.Result
		r, err = chaos.Run(ctx, *spec.Script, chaos.Telemetry{Events: opt.Events, Metrics: opt.Metrics})
		if err == nil {
			out = &ScriptOutcome{
				Script:     *spec.Script,
				Verdict:    chaos.VerdictOf(r, chaos.DefaultProbes()),
				FramesSent: r.FramesSent,
				Incomplete: r.Incomplete,
			}
		}
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	// A sweep interrupted by ctx returns a partial aggregate instead of
	// an error (the CLI contract); for the cache that partial result is
	// incomplete, so surface the cancellation as a failure here.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("serve: encode job result: %w", err)
	}
	return res, nil
}
