package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
)

// SweepResume parameterises a checkpointable sweep execution. The knobs
// are execution-side only — they change when progress is persisted and
// where a run starts, never what the finished outcome contains — so they
// stay invisible to the job's content address. A resumed sweep is
// byte-identical to an uninterrupted one because each point is fully
// determined by its seed and the outcome assembles points in seed order.
type SweepResume struct {
	// Prior is the seed-order prefix of completed point outcomes loaded
	// from a checkpoint. Entries that do not match the spec's seed list
	// (or follow a cancelled placeholder) are discarded defensively.
	Prior []PointOutcome
	// Every is the batch size between checkpoints: the sweep runs Every
	// points, then reports the full completed prefix (default 8).
	Every int
	// Save, if non-nil, is called at every batch boundary with the
	// completed seed-order prefix. Checkpointing is best-effort and never
	// fails the sweep, so persistence failures stay with the saver.
	Save func(done []PointOutcome)
}

// validPrefix returns the longest prefix of prior that matches the
// spec's seed list and contains only completed (non-cancelled) points.
func validPrefix(prior []PointOutcome, seeds []int64) []PointOutcome {
	n := 0
	for ; n < len(prior) && n < len(seeds); n++ {
		if prior[n].Seed != seeds[n] || prior[n].Cancelled {
			break
		}
	}
	return prior[:n]
}

// outcomeOf converts one completed sweep point.
func outcomeOf(p SweepPoint) PointOutcome {
	r := p.Result
	return PointOutcome{
		Seed:            p.Seed,
		Slots:           r.Slots,
		BitFlips:        r.BitFlips,
		FramesSent:      r.FramesSent,
		IMOs:            r.IMOs,
		Duplicates:      r.Duplicates,
		LostEverywhere:  r.LostEverywhere,
		Incomplete:      r.Incomplete,
		AtomicBroadcast: r.Report.AtomicBroadcast(),
	}
}

// SummarizeOutcomes folds serialised point outcomes into the sweep
// summary. Outcomes carry everything the totals need, so a resumed
// sweep's summary equals the uninterrupted one's.
func SummarizeOutcomes(points []PointOutcome) SweepSummary {
	var s SweepSummary
	for _, p := range points {
		s.Points++
		if p.Cancelled {
			s.Cancelled++
			continue
		}
		s.Frames += p.FramesSent
		s.IMOs += p.IMOs
		s.Duplicates += p.Duplicates
		s.Flips += p.BitFlips
	}
	return s
}

// RunSweepSpecResumable executes a sweep spec in checkpointable batches:
// points run Every at a time (in seed order across batches), and after
// each completed batch rz.Save receives the full completed prefix. A
// later run passing that prefix back as rz.Prior skips the finished
// seeds and produces an outcome byte-identical to an uninterrupted run —
// the recovery path the simulation service uses after a crash. rz nil
// (or a zero SweepResume) degenerates to a single uncheckpointed batch.
func RunSweepSpecResumable(ctx context.Context, spec SweepSpec, parallelism int, tel PointTelemetry, rz *SweepResume) (*SweepOutcome, error) {
	spec.Normalize()
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	seeds := spec.SeedList()
	every := len(seeds)
	var done []PointOutcome
	var save func([]PointOutcome)
	if rz != nil {
		if rz.Every > 0 {
			every = rz.Every
		} else if rz.Save != nil {
			every = 8
		}
		done = append(done, validPrefix(rz.Prior, seeds)...)
		save = rz.Save
	}
	if every < 1 {
		every = 1
	}

	out := &SweepOutcome{Spec: spec}
	for len(done) < len(seeds) {
		base := len(done)
		end := base + every
		if end > len(seeds) {
			end = len(seeds)
		}
		batchTel := tel
		if tel != nil {
			batchTel = func(i int, seed int64) (obs.Sink, *obs.Metrics) {
				return tel(base+i, seed)
			}
		}
		points := SweepSeeds(ctx, cfg, seeds[base:end], parallelism, batchTel)
		cancelled := false
		for _, p := range points {
			if p.Err != nil {
				if errors.Is(p.Err, context.Canceled) || errors.Is(p.Err, context.DeadlineExceeded) {
					done = append(done, PointOutcome{Seed: p.Seed, Cancelled: true})
					cancelled = true
					continue
				}
				return nil, fmt.Errorf("sim: seed %d: %w", p.Seed, p.Err)
			}
			done = append(done, outcomeOf(p))
		}
		if cancelled {
			// Mark the not-yet-started remainder and stop without saving:
			// a checkpoint must hold only completed work.
			for _, s := range seeds[len(done):] {
				done = append(done, PointOutcome{Seed: s, Cancelled: true})
			}
			break
		}
		if save != nil && len(done) < len(seeds) {
			save(append([]PointOutcome(nil), done...))
		}
	}
	out.Points = done
	out.Summary = SummarizeOutcomes(done)
	return out, nil
}
