package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/obs"
)

// Campaign is a randomised search for invariant violations: Trials random
// fault scripts are drawn around a base cluster configuration, executed,
// and probed; every failing script is shrunk to a minimal counterexample.
type Campaign struct {
	// Name labels findings and artifacts.
	Name string
	// Base is the cluster configuration every trial shares; its Faults are
	// ignored (trials draw their own).
	Base Script
	// Trials is the number of random scripts to execute.
	Trials int
	// StartTrial is the global index of the first trial: the campaign
	// runs trials [StartTrial, StartTrial+Trials). Because every trial
	// draws from its own seed-derived RNG, a partition of contiguous
	// trial ranges across workers reproduces exactly the trials a single
	// [0, total) run would draw — the fleet coordinator's shard contract.
	// Finding.Trial records the global index either way.
	StartTrial int
	// MaxFaults bounds the faults per trial (>= 1; default 4).
	MaxFaults int
	// FaultKinds restricts the fault classes drawn (default: all).
	FaultKinds []FaultKind
	// Seed makes the search reproducible.
	Seed int64
	// Probes are the invariants checked (default DefaultProbes).
	Probes []Probe
	// StopAtFirst ends the campaign at the first finding.
	StopAtFirst bool
	// MaxEOFRel bounds view-flip EOF positions (default: the protocol's
	// EOF length plus 6, covering delimiter and intermission bits).
	MaxEOFRel int
	// MaxAttempt bounds view-flip attempt numbers (default 2).
	MaxAttempt int
	// WindowMax bounds stuck/mute window lengths in slots (default 200).
	WindowMax int
	// Horizon bounds absolute fault slots (default 200 per frame).
	Horizon uint64
	// Metrics, if non-nil, aggregates every simulator execution of the
	// campaign — trials, shrink candidates and final verification runs —
	// into one registry (bits simulated, error flags, retransmissions).
	Metrics *obs.Metrics
	// Events, if non-nil, receives the protocol event stream of every
	// simulator execution. The campaign runs trials on one goroutine, so
	// a single-producer sink (e.g. an obs.Ring drained by a live reader)
	// is sufficient.
	Events obs.Sink
	// OnTrial, if non-nil, is called after each trial completes with the
	// number of trials finished so far, for progress display.
	OnTrial func(done int)
	// Resume, if non-nil, restarts the campaign from recorded progress:
	// trials below Resume.Trial are skipped and the recorded findings and
	// execution count are preloaded. Because every trial draws from its
	// own seed-derived RNG, a resumed campaign's result is identical to
	// an uninterrupted one.
	Resume *CampaignProgress
	// OnProgress, if non-nil, is called at every trial boundary with the
	// cumulative progress — the snapshot a checkpointing caller persists
	// so a crashed campaign resumes instead of restarting.
	OnProgress func(p CampaignProgress)
}

// CampaignProgress is a resumable snapshot of a campaign at a trial
// boundary: how many trials are fully processed, how many simulator
// executions they took, and the findings so far. It is the payload the
// simulation service checkpoints beside the result spool.
type CampaignProgress struct {
	// Trial is the number of trials fully processed.
	Trial int `json:"trial"`
	// Executions counts simulator runs including shrinking re-executions.
	Executions int `json:"executions"`
	// Findings are the counterexamples found in trials [0, Trial).
	Findings []Finding `json:"findings,omitempty"`
}

// Finding is one discovered counterexample.
type Finding struct {
	// Trial is the index of the failing trial.
	Trial int
	// Original is the failing script as drawn.
	Original Script
	// Shrunk is the 1-minimal script preserving the violation classes.
	Shrunk Script
	// Verdict is the shrunk script's recorded outcome.
	Verdict Verdict
	// Violations are the shrunk script's probe findings (same as
	// Verdict.Violations, kept for direct access).
	Violations []string
}

// Artifact packages the finding for replay.
func (f Finding) Artifact(campaign string) Artifact {
	return Artifact{
		Campaign:       campaign,
		Trial:          f.Trial,
		OriginalFaults: len(f.Original.Faults),
		Script:         f.Shrunk,
		Verdict:        f.Verdict,
	}
}

// CampaignResult summarises a campaign.
type CampaignResult struct {
	// Name echoes the campaign name.
	Name string
	// Trials is the number of trials the campaign covered: the
	// configured count, or, when ctx interrupted it, the trials completed
	// before the interruption (resumed ones included).
	Trials int
	// Executions counts simulator runs including shrinking re-executions.
	Executions int
	// Findings are the discovered counterexamples in trial order.
	Findings []Finding
}

func (c *Campaign) defaults() (Campaign, error) {
	cc := *c
	if cc.Base.Version == 0 {
		cc.Base.Version = ScriptVersion
	}
	if err := cc.Base.WithFaults(nil).Validate(); err != nil {
		return cc, err
	}
	policy, err := ParseProtocol(cc.Base.Protocol)
	if err != nil {
		return cc, err
	}
	if cc.Trials <= 0 {
		cc.Trials = 100
	}
	if cc.MaxFaults <= 0 {
		cc.MaxFaults = 4
	}
	if len(cc.FaultKinds) == 0 {
		cc.FaultKinds = Kinds()
	}
	if len(cc.Probes) == 0 {
		cc.Probes = DefaultProbes()
	}
	if cc.MaxEOFRel <= 0 {
		cc.MaxEOFRel = policy.EOFBits() + 6
	}
	if cc.MaxAttempt <= 0 {
		cc.MaxAttempt = 2
	}
	if cc.WindowMax <= 0 {
		cc.WindowMax = 200
	}
	if cc.Horizon == 0 {
		cc.Horizon = uint64(cc.Base.Frames) * 200
	}
	return cc, nil
}

// draw generates one random fault for a trial.
func (c *Campaign) draw(rng *rand.Rand) Fault {
	f := Fault{
		Kind:    c.FaultKinds[rng.Intn(len(c.FaultKinds))],
		Station: rng.Intn(c.Base.Nodes),
	}
	switch f.Kind {
	case ViewFlip:
		f.EOFRel = 1 + rng.Intn(c.MaxEOFRel)
		f.Attempt = 1 + rng.Intn(c.MaxAttempt)
	case StuckDominant, Mute:
		f.Slot = uint64(rng.Int63n(int64(c.Horizon)))
		f.Until = f.Slot + 1 + uint64(rng.Intn(c.WindowMax))
	case Crash, BusOffKind, ClockGlitch:
		f.Slot = uint64(rng.Int63n(int64(c.Horizon)))
	}
	return f
}

// violationClasses extracts the distinct failure classes ("AB2-Agreement",
// "liveness", ...) from probe findings; shrinking preserves them so a rich
// counterexample cannot degrade into a different, weaker failure.
func violationClasses(violations []string) map[string]bool {
	classes := make(map[string]bool)
	for _, v := range violations {
		if i := strings.IndexByte(v, ':'); i >= 0 {
			classes[v[:i]] = true
		} else {
			classes[v] = true
		}
	}
	return classes
}

func coversClasses(got []string, want map[string]bool) bool {
	have := violationClasses(got)
	//lint:allow determinism -- order-independent universal quantification over failure classes
	for c := range want {
		if !have[c] {
			return false
		}
	}
	return true
}

// Run executes the campaign, stopping when ctx is cancelled: between
// trials, or inside a trial's runs and shrinking. An interrupted trial
// adds no executions, no finding and no progress, and the partial result
// of the trials before it returns alongside ctx's error, so callers can
// flush what completed — the same contract sim.RunSweepSpec gives
// interrupted sweeps. ctx never influences a campaign that completes.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	cc, err := c.defaults()
	if err != nil {
		return nil, err
	}
	tel := Telemetry{Events: cc.Events, Metrics: cc.Metrics}
	res := &CampaignResult{Name: cc.Name, Trials: cc.Trials}
	start, end := cc.StartTrial, cc.StartTrial+cc.Trials
	if cc.Resume != nil && cc.Resume.Trial >= cc.StartTrial {
		// Resume.Trial is a global watermark ("trials below this are
		// done"); one below StartTrial belongs to a different trial
		// window and is ignored rather than trusted.
		start = cc.Resume.Trial
		if start > end {
			start = end
		}
		res.Executions = cc.Resume.Executions
		res.Findings = append(res.Findings, cc.Resume.Findings...)
		if cc.StopAtFirst && len(res.Findings) > 0 {
			// The interrupted campaign had already stopped at its first
			// finding; resuming must not search further.
			return res, nil
		}
	}
	progress := func(done int) {
		if cc.OnProgress != nil {
			cc.OnProgress(CampaignProgress{
				Trial:      done,
				Executions: res.Executions,
				Findings:   append([]Finding(nil), res.Findings...),
			})
		}
	}
	// interrupted returns the trials completed before trial with ctx's
	// error.
	interrupted := func(trial int) (*CampaignResult, error) {
		res.Trials = trial - cc.StartTrial
		return res, ctx.Err()
	}
	// Per-trial RNGs keep trial t reproducible regardless of how many
	// faults earlier trials drew.
	const trialStride int64 = 0x5E3779B97F4A7C15 // odd constant decorrelates trials
	for trial := start; trial < end; trial++ {
		if ctx.Err() != nil {
			return interrupted(trial)
		}
		rng := rand.New(rand.NewSource(cc.Seed*0x1000193 + int64(trial)*trialStride))
		script := cc.Base.WithFaults(nil)
		nf := 1 + rng.Intn(cc.MaxFaults)
		for i := 0; i < nf; i++ {
			script.Faults = append(script.Faults, cc.draw(rng))
		}
		run, err := Run(ctx, script, tel)
		if err != nil {
			if ctx.Err() != nil {
				return interrupted(trial)
			}
			return nil, fmt.Errorf("chaos: trial %d: %w", trial, err)
		}
		violations := Violations(run, cc.Probes)
		if len(violations) == 0 {
			res.Executions++
			if cc.OnTrial != nil {
				cc.OnTrial(trial + 1)
			}
			progress(trial + 1)
			continue
		}
		classes := violationClasses(violations)
		execs := 1
		shrunk := Shrink(script, func(cand Script) bool {
			r, err := Run(ctx, cand, tel)
			if err != nil {
				return false
			}
			execs++
			return coversClasses(Violations(r, cc.Probes), classes)
		})
		// A candidate cut short by ctx reads as "does not reproduce", but
		// such a shrink is never recorded: ctx stays cancelled, so the
		// final run fails before its first frame.
		final, err := Run(ctx, shrunk, tel)
		if err != nil {
			if ctx.Err() != nil {
				return interrupted(trial)
			}
			return nil, fmt.Errorf("chaos: trial %d (shrunk): %w", trial, err)
		}
		res.Executions += execs + 1
		verdict := VerdictOf(final, cc.Probes)
		res.Findings = append(res.Findings, Finding{
			Trial:      trial,
			Original:   script,
			Shrunk:     shrunk,
			Verdict:    verdict,
			Violations: verdict.Violations,
		})
		if cc.OnTrial != nil {
			cc.OnTrial(trial + 1)
		}
		progress(trial + 1)
		if cc.StopAtFirst {
			break
		}
	}
	return res, nil
}

// ReplayResult compares a fresh execution of an artifact's script against
// its recorded verdict.
type ReplayResult struct {
	// Result is the fresh execution.
	Result *Result
	// Verdict is the fresh execution's verdict under the given probes.
	Verdict Verdict
	// DigestMatch reports bit-for-bit bus equality with the recording.
	DigestMatch bool
	// VerdictMatch reports identical violation sets and counts.
	VerdictMatch bool
}

// Matches reports full bit-for-bit and verdict agreement.
func (r *ReplayResult) Matches() bool { return r.DigestMatch && r.VerdictMatch }

// Replay re-executes an artifact's script with telemetry t attached and
// checks that it reproduces the recorded verdict exactly, so a checked-in
// counterexample can also be turned into a readable event sequence and a
// metrics snapshot. Probes default to DefaultProbes, which is what
// campaigns record.
func Replay(ctx context.Context, a Artifact, t Telemetry, probes ...Probe) (*ReplayResult, error) {
	if len(probes) == 0 {
		probes = DefaultProbes()
	}
	run, err := Run(ctx, a.Script, t)
	if err != nil {
		return nil, err
	}
	verdict := VerdictOf(run, probes)
	rr := &ReplayResult{
		Result:      run,
		Verdict:     verdict,
		DigestMatch: verdict.Digest == a.Verdict.Digest && verdict.Slots == a.Verdict.Slots,
	}
	rr.VerdictMatch = equalStrings(verdict.Violations, a.Verdict.Violations) &&
		verdict.IMOs == a.Verdict.IMOs &&
		verdict.Duplicates == a.Verdict.Duplicates &&
		verdict.OrderInversions == a.Verdict.OrderInversions &&
		verdict.Quiet == a.Verdict.Quiet
	return rr, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
