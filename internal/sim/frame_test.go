package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
)

// freshFrame is the literal single-frame run a FrameRunner replaces: a new
// cluster simulated from slot 0 by the reference loop.
func freshFrame(t *testing.T, policy node.EOFPolicy, stations int, f *frame.Frame, rules []*errmodel.Rule, crash, maxSlots int) (*Cluster, bool) {
	t.Helper()
	c := freshCluster(t, policy, stations, f, rules, crash)
	return c, c.RunUntilQuiet(maxSlots)
}

// freshCluster builds freshFrame's cluster at slot 0, under the
// reference engine.
func freshCluster(t *testing.T, policy node.EOFPolicy, stations int, f *frame.Frame, rules []*errmodel.Rule, crash int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{Nodes: stations, Policy: policy, Engine: EngineReference})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) > 0 {
		c.Net.AddDisturber(errmodel.NewScript(rules...))
	}
	if crash >= 0 {
		c.Net.AddProbe(&CrashAtFirstFlag{Ctrl: c.Nodes[crash], Station: crash})
	}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		t.Fatal(err)
	}
	return c
}

// diffClusters describes the first observable difference between two
// clusters after a run, or returns "".
func diffClusters(got, want *Cluster) string {
	if g, w := got.Net.Slot(), want.Net.Slot(); g != w {
		return fmt.Sprintf("final slot %d, fresh %d", g, w)
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		gt, gr := g.Counters()
		wt, wr := w.Counters()
		switch {
		case g.Mode() != w.Mode():
			return fmt.Sprintf("station %d mode %v, fresh %v", i, g.Mode(), w.Mode())
		case gt != wt || gr != wr:
			return fmt.Sprintf("station %d TEC/REC %d/%d, fresh %d/%d", i, gt, gr, wt, wr)
		case g.Now() != w.Now() || g.Crashed() != w.Crashed() || g.Attempts() != w.Attempts() || g.QueueLen() != w.QueueLen():
			return fmt.Sprintf("station %d clock/crash/attempts/queue differ", i)
		case !sameRecords(got.Verdicts[i], want.Verdicts[i]):
			return fmt.Sprintf("station %d verdicts %v, fresh %v", i, got.Verdicts[i], want.Verdicts[i])
		case !sameRecords(got.TxResults[i], want.TxResults[i]):
			return fmt.Sprintf("station %d tx results %v, fresh %v", i, got.TxResults[i], want.TxResults[i])
		case !sameRecords(got.Deliveries[i], want.Deliveries[i]):
			return fmt.Sprintf("station %d deliveries %v, fresh %v", i, got.Deliveries[i], want.Deliveries[i])
		}
		for k := node.ErrBit; k <= node.ErrOverload; k++ {
			if g.ErrorCount(k) != w.ErrorCount(k) {
				return fmt.Sprintf("station %d %v errors %d, fresh %d", i, k, g.ErrorCount(k), w.ErrorCount(k))
			}
		}
	}
	return ""
}

// sameRecords compares two record lists by content; an empty list equals
// a nil one.
func sameRecords[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

var runnerFrame = &frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}

// One reused FrameRunner, restored before every run, ends every one- and
// two-flip pattern — with and without a crash at the first flag — in
// exactly the state a fresh cluster simulated from slot 0 reaches: each
// station's mode, TEC/REC, clock, verdicts, tx results and deliveries,
// and the final slot.
func TestFrameRunnerMatchesFresh(t *testing.T) {
	const stations, budget = 4, 6000
	for _, policy := range []node.EOFPolicy{core.NewStandard(), core.NewMinorCAN(), core.MustMajorCAN(3)} {
		r, err := NewFrameRunner(policy, stations, runnerFrame)
		if err != nil {
			t.Fatal(err)
		}
		positions := policy.EOFBits() + 2
		if ep, ok := policy.(interface{ EndPos() int }); ok {
			positions = ep.EndPos()
		}
		var sites [][2]int
		for s := 0; s < stations; s++ {
			for p := 1; p <= positions; p++ {
				sites = append(sites, [2]int{s, p})
			}
		}
		rules := func(pattern [][2]int) []*errmodel.Rule {
			out := make([]*errmodel.Rule, len(pattern))
			for i, f := range pattern {
				out[i] = errmodel.AtEOFBit([]int{f[0]}, f[1], 1)
			}
			return out
		}
		runs := 0
		for a := range sites {
			for b := a; b < len(sites); b++ {
				pattern := [][2]int{sites[a]}
				if b > a {
					pattern = append(pattern, sites[b])
				}
				for crash := -1; crash < stations; crash++ {
					got, gotQuiet, deliveries := r.Run(errmodel.NewScript(rules(pattern)...), crash, nil, budget)
					want, wantQuiet := freshFrame(t, policy, stations, runnerFrame, rules(pattern), crash, budget)
					if gotQuiet != wantQuiet {
						t.Fatalf("%s %v crash %d: quiet %v, fresh %v", policy.Name(), pattern, crash, gotQuiet, wantQuiet)
					}
					if d := diffClusters(got, want); d != "" {
						t.Fatalf("%s %v crash %d: %s", policy.Name(), pattern, crash, d)
					}
					for i, n := range deliveries {
						if n != want.DeliveryCount(i, runnerFrame) {
							t.Fatalf("%s %v crash %d: deliveries %v", policy.Name(), pattern, crash, deliveries)
						}
					}
					runs++
				}
			}
		}
		t.Logf("%s: %d runs restored from slot %d match fresh clusters", policy.Name(), runs, r.prefix.net.Slot())
	}
}

// The prefix snapshot is the last slot before any station enters its
// end-of-frame episode, and restoring it — after runs that disturbed,
// crashed, delivered and stopped mid-frame — yields exactly the state a fresh cluster has at
// that slot: the network's clock, edge latch and registrations, every
// controller's protocol state and empty record lists.
func TestFrameRunnerRestoresPrefixState(t *testing.T) {
	for _, policy := range []node.EOFPolicy{core.NewStandard(), core.MustMajorCAN(5)} {
		r, err := NewFrameRunner(policy, 4, runnerFrame)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(errmodel.NewScript(errmodel.AtEOFBit([]int{1}, policy.EOFBits()-1, 1)), 0, nil, 6000)
		r.Run(errmodel.NewScript(errmodel.AtEOFBit([]int{2}, 1, 1)), 3, nil, 6000)
		// A budget that ends mid-frame leaves every receive pipeline
		// half-way through the frame body.
		r.Run(nil, -1, nil, 30)

		slot := r.prefix.net.Slot()
		fresh := freshCluster(t, policy, 4, runnerFrame, nil, -1)
		fresh.Net.Run(int(slot))
		if fresh.holdsEpisode() {
			t.Fatalf("%s: a station is in its episode at the snapshot slot %d", policy.Name(), slot)
		}
		if slot == 0 {
			t.Fatalf("%s: the prefix snapshot skips nothing", policy.Name())
		}

		c := r.cluster
		c.restore(&r.prefix)
		if c.Net.Slot() != slot || c.Net.PrevLevel() != fresh.Net.PrevLevel() {
			t.Errorf("%s: network at slot %d level %v, fresh %d %v", policy.Name(), c.Net.Slot(), c.Net.PrevLevel(), slot, fresh.Net.PrevLevel())
		}
		if c.Net.NumProbes() != 0 || len(c.Net.DisturberList()) != 0 {
			t.Errorf("%s: %d probes and %d disturbers survive the restore", policy.Name(), c.Net.NumProbes(), len(c.Net.DisturberList()))
		}
		for i, n := range c.Nodes {
			if !reflect.DeepEqual(n.Snapshot(), fresh.Nodes[i].Snapshot()) {
				t.Errorf("%s: station %d state differs from a fresh cluster's at slot %d", policy.Name(), i, slot)
			}
			if len(c.Deliveries[i])+len(c.TxResults[i])+len(c.Verdicts[i]) != 0 {
				t.Errorf("%s: station %d keeps records of an earlier run", policy.Name(), i)
			}
		}
		fresh.Net.Step()
		if !fresh.holdsEpisode() {
			t.Errorf("%s: slot %d is not the last before an episode", policy.Name(), slot)
		}
	}
}

// A budget shorter than the prefix runs from the origin, and probes see
// every slot from 0.
func TestFrameRunnerShortBudgetAndProbes(t *testing.T) {
	policy := core.MustMajorCAN(5)
	r, err := NewFrameRunner(policy, 4, runnerFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, quiet, _ := r.Run(nil, -1, nil, 10)
	want, wantQuiet := freshFrame(t, policy, 4, runnerFrame, nil, -1, 10)
	if quiet != wantQuiet || quiet {
		t.Fatalf("10-slot budget: quiet %v, fresh %v", quiet, wantQuiet)
	}
	if d := diffClusters(got, want); d != "" {
		t.Fatalf("10-slot budget: %s", d)
	}
	probe := &slotProbe{}
	r.Run(nil, -1, []bus.Probe{probe}, 6000)
	if probe.first != 0 || probe.n == 0 {
		t.Fatalf("probe first saw slot %d (%d slots); it must see every slot from 0", probe.first, probe.n)
	}
}

// A verify pattern — EOF-bit flips of the first attempt, restored from
// the prefix — runs on the fast engine's packed core: no slot is
// delegated to Network.Step. A crash placement attaches the crash probe,
// which forces the reference plan.
func TestFrameRunnerScriptsRunOnPackedCore(t *testing.T) {
	r, err := NewFrameRunner(core.MustMajorCAN(5), 4, runnerFrame)
	if err != nil {
		t.Fatal(err)
	}
	script := errmodel.NewScript()
	for _, crash := range []int{-1, 1} {
		before := r.cluster.engine.Counters()
		script.Reset()
		r.Run(script.FlipEOF(1, 3, 1).FlipEOF(0, 4, 1), crash, nil, 6000)
		after := r.cluster.engine.Counters()
		if stepped, ref := after.Stepped-before.Stepped, after.Reference-before.Reference; stepped == 0 || (ref == 0) != (crash < 0) {
			t.Errorf("crash %d: %d slots stepped, %d of them by the reference loop", crash, stepped, ref)
		}
	}
}

// slotProbe records the first slot it sees and how many it saw.
type slotProbe struct {
	first uint64
	n     int
}

func (p *slotProbe) OnBit(slot uint64, _ bitstream.Level, _, _ []bitstream.Level, _ []bus.ViewContext) {
	if p.n == 0 {
		p.first = slot
	}
	p.n++
}

// A snapshot taken at any slot inside an end-of-frame episode restores
// into a second cluster that, given a fresh script of the same rules,
// finishes the run exactly as the literal reference loop does: the
// verdicts, tx results and deliveries recorded after that slot, whether
// the bus went quiet, the final slot and every controller's whole
// protocol state. A fresh script is equivalent because an AtEOFBit rule
// can fire only at its own EOF position, which no station passes twice
// in one attempt. Every one- and two-flip pattern of CAN, MinorCAN and
// MajorCAN_3 on four stations, at every slot at which some station is
// inside its episode.
func TestMidEpisodeSnapshotMatchesReference(t *testing.T) {
	const stations, budget = 4, 6000
	for _, policy := range []node.EOFPolicy{core.NewStandard(), core.NewMinorCAN(), core.MustMajorCAN(3)} {
		second, err := NewCluster(ClusterOptions{Nodes: stations, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		sites := memoSites(policy, stations)
		snapshots := 0
		for a := range sites {
			for b := a; b < len(sites); b++ {
				pattern := [][2]int{sites[a]}
				if b > a {
					pattern = append(pattern, sites[b])
				}
				ref, err := NewCluster(ClusterOptions{Nodes: stations, Policy: policy, Engine: EngineReference})
				if err != nil {
					t.Fatal(err)
				}
				ref.Net.AddDisturber(errmodel.NewScript(eofRules(pattern)...))
				if err := ref.Nodes[0].Enqueue(runnerFrame); err != nil {
					t.Fatal(err)
				}
				// The reference run, RunUntilQuiet slot by slot, snapshotting
				// every slot inside an episode with each station's record
				// counts at that point.
				type mark struct {
					state   clusterState
					records [][3]int
				}
				var marks []mark
				for i := 0; i < budget && !ref.Quiet(); i++ {
					if ref.holdsEpisode() {
						m := mark{state: ref.snapshot()}
						for s := range ref.Nodes {
							m.records = append(m.records, [3]int{len(ref.Deliveries[s]), len(ref.TxResults[s]), len(ref.Verdicts[s])})
						}
						marks = append(marks, m)
					}
					ref.Net.Step()
				}
				refQuiet := ref.Quiet()
				ref.Net.Run(4)
				if len(marks) == 0 {
					t.Fatalf("%s %v: no slot inside an episode", policy.Name(), pattern)
				}
				for _, m := range marks {
					slot := m.state.net.Slot()
					second.restore(&m.state)
					second.Net.AddDisturber(errmodel.NewScript(eofRules(pattern)...))
					quiet := second.RunUntilQuiet(budget - int(slot))
					where := fmt.Sprintf("%s %v from slot %d", policy.Name(), pattern, slot)
					if quiet != refQuiet {
						t.Fatalf("%s: quiet %v, reference %v", where, quiet, refQuiet)
					}
					if g, w := second.Net.Slot(), ref.Net.Slot(); g != w {
						t.Fatalf("%s: final slot %d, reference %d", where, g, w)
					}
					for s, r := range m.records {
						switch {
						case !sameRecords(second.Deliveries[s], ref.Deliveries[s][r[0]:]):
							t.Fatalf("%s: station %d deliveries %v, reference %v", where, s, second.Deliveries[s], ref.Deliveries[s][r[0]:])
						case !sameRecords(second.TxResults[s], ref.TxResults[s][r[1]:]):
							t.Fatalf("%s: station %d tx results %v, reference %v", where, s, second.TxResults[s], ref.TxResults[s][r[1]:])
						case !sameRecords(second.Verdicts[s], ref.Verdicts[s][r[2]:]):
							t.Fatalf("%s: station %d verdicts %v, reference %v", where, s, second.Verdicts[s], ref.Verdicts[s][r[2]:])
						}
					}
					if d := diffStates(second, ref); d != "" {
						t.Fatalf("%s: %s", where, d)
					}
					snapshots++
				}
			}
		}
		t.Logf("%s: %d mid-episode snapshots finish as the reference run", policy.Name(), snapshots)
	}
}
