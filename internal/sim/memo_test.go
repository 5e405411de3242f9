package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/node"
)

// memoSites lists every (station, EOF-relative position) of a policy's
// decision region.
func memoSites(policy node.EOFPolicy, stations int) [][2]int {
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
	return sites
}

func eofRules(pattern [][2]int) []*errmodel.Rule {
	rules := make([]*errmodel.Rule, len(pattern))
	for i, f := range pattern {
		rules[i] = errmodel.AtEOFBit([]int{f[0]}, f[1], 1)
	}
	return rules
}

// diffStates describes the first controller whose whole protocol state
// differs between two clusters, or returns "".
func diffStates(got, want *Cluster) string {
	for i, g := range got.Nodes {
		if !reflect.DeepEqual(g.Snapshot(), want.Nodes[i].Snapshot()) {
			return fmt.Sprintf("station %d protocol state differs", i)
		}
	}
	return ""
}

// Running a pattern a second time on one runner replays its memoized
// suffix, and the replayed run ends exactly where a fresh cluster
// simulated from slot 0 does: each station's mode, TEC/REC, clock,
// verdicts, tx results, deliveries, whole protocol state, and the final
// slot. Every one- and two-flip pattern of CAN, MinorCAN and MajorCAN_3,
// with no crash and a crash at each station's first flag.
func TestFrameRunnerMemoHitMatchesFresh(t *testing.T) {
	const stations, budget = 4, 6000
	for _, policy := range []node.EOFPolicy{core.NewStandard(), core.NewMinorCAN(), core.MustMajorCAN(3)} {
		r, err := NewFrameRunner(policy, stations, runnerFrame)
		if err != nil {
			t.Fatal(err)
		}
		sites := memoSites(policy, stations)
		runs := 0
		for a := range sites {
			for b := a; b < len(sites); b++ {
				pattern := [][2]int{sites[a]}
				if b > a {
					pattern = append(pattern, sites[b])
				}
				for crash := -1; crash < stations; crash++ {
					r.Run(errmodel.NewScript(eofRules(pattern)...), crash, nil, budget)
					before := r.MemoStats()
					got, gotQuiet, deliveries := r.Run(errmodel.NewScript(eofRules(pattern)...), crash, nil, budget)
					if after := r.MemoStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
						t.Fatalf("%s %v crash %d: second run was not a memo hit (%+v then %+v)", policy.Name(), pattern, crash, before, after)
					}
					want, wantQuiet := freshFrame(t, policy, stations, runnerFrame, eofRules(pattern), crash, budget)
					if gotQuiet != wantQuiet {
						t.Fatalf("%s %v crash %d: quiet %v, fresh %v", policy.Name(), pattern, crash, gotQuiet, wantQuiet)
					}
					d := diffClusters(got, want)
					if d == "" {
						d = diffStates(got, want)
					}
					if d != "" {
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
		t.Logf("%s: %d replayed runs match fresh clusters; memo %+v", policy.Name(), runs, r.MemoStats())
	}
}

// A run whose rules could fire after the settle point — any rule but a
// first-attempt AtEOFBit rule — or that carries a caller probe is never
// memoized, and still ends where a fresh cluster does.
func TestFrameRunnerMemoSkipsLiveRulesAndProbes(t *testing.T) {
	const stations, budget = 4, 6000
	policy := core.MustMajorCAN(3)
	r, err := NewFrameRunner(policy, stations, runnerFrame)
	if err != nil {
		t.Fatal(err)
	}
	withWhen := func() []*errmodel.Rule {
		rule := errmodel.AtEOFBit([]int{1}, 2, 1)
		rule.When = func(uint64, int, bus.ViewContext) bool { return true }
		return []*errmodel.Rule{rule}
	}
	cases := []struct {
		name  string
		rules func() []*errmodel.Rule
	}{
		{"any-attempt AtEOFBit", func() []*errmodel.Rule { return []*errmodel.Rule{errmodel.AtEOFBit([]int{1}, 2, 0)} }},
		{"retransmission AtEOFBit", func() []*errmodel.Rule {
			return []*errmodel.Rule{errmodel.AtEOFBit([]int{1}, 2, 1), errmodel.AtEOFBit([]int{2}, 1, 2)}
		}},
		{"AtEOFBit with a When", withWhen},
		{"AtPhase", func() []*errmodel.Rule { return []*errmodel.Rule{errmodel.AtPhase([]int{1}, bus.PhaseEOF, 2)} }},
		{"AtSlot", func() []*errmodel.Rule { return []*errmodel.Rule{errmodel.AtSlot([]int{2}, 60)} }},
	}
	check := func(name string, got *Cluster, gotQuiet bool, rules []*errmodel.Rule, before MemoStats) {
		t.Helper()
		if after := r.MemoStats(); after != before {
			t.Fatalf("%s: memo consulted (%+v then %+v)", name, before, after)
		}
		want, wantQuiet := freshFrame(t, policy, stations, runnerFrame, rules, -1, budget)
		if gotQuiet != wantQuiet {
			t.Fatalf("%s: quiet %v, fresh %v", name, gotQuiet, wantQuiet)
		}
		if d := diffClusters(got, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	for _, c := range cases {
		for i := 0; i < 2; i++ {
			before := r.MemoStats()
			got, quiet, _ := r.Run(errmodel.NewScript(c.rules()...), -1, nil, budget)
			check(c.name, got, quiet, c.rules(), before)
		}
	}
	pattern := [][2]int{{1, 2}}
	r.Run(errmodel.NewScript(eofRules(pattern)...), -1, nil, budget) // memoized without a probe
	before := r.MemoStats()
	got, quiet, _ := r.Run(errmodel.NewScript(eofRules(pattern)...), -1, []bus.Probe{&slotProbe{}}, budget)
	check("caller probe", got, quiet, eofRules(pattern), before)
}

// Every field of the joint state is in the memo key: perturbing any one
// leaf of a controller's node.State — reached by reflection through
// nested structs, arrays, slices and pointees — or of bus.State changes
// the key, and so do the crash probe's station, its fired flag and the
// remaining budget. A state field added later fails here until it is
// keyed.
func TestMemoKeyCoversState(t *testing.T) {
	r, err := NewFrameRunner(core.MustMajorCAN(3), 4, runnerFrame)
	if err != nil {
		t.Fatal(err)
	}
	c := r.cluster
	// The prefix: station 0 holds a queued frame and its encoding, and
	// every receive pipeline is mid-frame.
	c.restore(&r.prefix)
	r.crash = CrashAtFirstFlag{Ctrl: c.Nodes[1], Station: 1}
	base := r.appendKey(nil, 1, 100)
	if again := r.appendKey(nil, 1, 100); !bytes.Equal(base, again) {
		t.Fatal("the key of one state is not deterministic")
	}

	for i, n := range c.Nodes {
		orig := n.Snapshot()
		leaves := 0
		for ; ; leaves++ {
			s := orig
			path := perturbLeaf(t, reflect.ValueOf(&s).Elem(), "State", new(int), leaves)
			if path == "" {
				break
			}
			n.Restore(s)
			if bytes.Equal(r.appendKey(nil, 1, 100), base) {
				t.Errorf("station %d: perturbing %s leaves the key unchanged", i, path)
			}
			n.Restore(orig)
		}
		if !bytes.Equal(r.appendKey(nil, 1, 100), base) {
			t.Fatalf("station %d: perturbing the state leaked into the original", i)
		}
		if i == 0 {
			t.Logf("%d controller state leaves perturbed", leaves)
		}
	}

	orig := c.Net.Snapshot()
	for leaf := 0; ; leaf++ {
		s := orig
		path := perturbLeaf(t, reflect.ValueOf(&s).Elem(), "bus.State", new(int), leaf)
		if path == "" {
			break
		}
		c.Net.Restore(s)
		if bytes.Equal(r.appendKey(nil, 1, 100), base) {
			t.Errorf("perturbing %s leaves the key unchanged", path)
		}
		c.Net.Restore(orig)
	}

	if bytes.Equal(r.appendKey(nil, 2, 100), base) || bytes.Equal(r.appendKey(nil, -1, 100), base) {
		t.Error("the crash station is not keyed")
	}
	if bytes.Equal(r.appendKey(nil, 1, 101), base) {
		t.Error("the remaining budget is not keyed")
	}
	r.crash.done = true
	if bytes.Equal(r.appendKey(nil, 1, 100), base) {
		t.Error("the crash probe's fired flag is not keyed")
	}
}

// perturbLeaf changes the target-th leaf of v in depth-first order and
// returns its path, or "" when v has no such leaf; *seen counts the
// leaves passed. Leaves are bools, integers, nil pointers and slice
// lengths. Every slice and pointee on the way down is copied before it is
// entered, so storage v shares with other values is never written.
// Unexported fields are reached through their addresses.
func perturbLeaf(t *testing.T, v reflect.Value, path string, seen *int, target int) string {
	t.Helper()
	leaf := func(perturb func()) string {
		if *seen == target {
			perturb()
			return path
		}
		*seen++
		return ""
	}
	switch v.Kind() {
	case reflect.Bool:
		return leaf(func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return leaf(func() { v.SetInt(v.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return leaf(func() { v.SetUint(v.Uint() + 1) })
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			if p := perturbLeaf(t, f, path+"."+v.Type().Field(i).Name, seen, target); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := perturbLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, target); p != "" {
				return p
			}
		}
		return ""
	case reflect.Slice:
		if p := leaf(func() {
			elem := reflect.Zero(v.Type().Elem())
			if v.Type().Elem().Kind() == reflect.Pointer {
				elem = reflect.New(v.Type().Elem().Elem())
			}
			v.Set(reflect.Append(v, elem))
		}); p != "" {
			return p + " (length)"
		}
		cp := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(cp, v)
		v.Set(cp)
		for i := 0; i < v.Len(); i++ {
			if p := perturbLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, target); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer:
		if v.IsNil() {
			return leaf(func() { v.Set(reflect.New(v.Type().Elem())) })
		}
		cp := reflect.New(v.Type().Elem())
		cp.Elem().Set(v.Elem())
		v.Set(cp)
		return perturbLeaf(t, v.Elem(), "(*"+path+")", seen, target)
	}
	t.Fatalf("%s: no perturbation for a %v field (%v); key it and teach perturbLeaf", path, v.Kind(), v.Type())
	return ""
}
