package fastpath_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/bus/fastpath"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/obs"
)

// bench is one half of a window-by-window comparison: a bus of
// controllers built directly, so each station's options (AutoRecover)
// and error counters can be set, with the full event stream captured.
type bench struct {
	net   *bus.Network
	ctrls []*node.Controller
	mem   *obs.Memory
	rnd   *errmodel.Random       // the model ber describes, if any
	flips []errmodel.FlipCounter // every registered model that counts flips
}

// benchSpec describes a scenario both engines run.
type benchSpec struct {
	policy  string
	opts    []node.Options // one per station
	ber     float64        // rate of an ungated errmodel.Random; 0 for none
	eofOnly bool           // gate the model on the EOF region
	seed    int64
	setup   func(ctrls []*node.Controller)
	// models, when set, returns further disturbers to register, fresh
	// for each bench.
	models func() []bus.Disturber
}

func newBench(t *testing.T, s benchSpec) *bench {
	t.Helper()
	policy, err := core.ParsePolicy(s.policy)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{net: bus.NewNetwork(), mem: obs.NewMemory()}
	b.net.SetEmitter(b.mem)
	for i, o := range s.opts {
		c := node.New(fmt.Sprintf("n%d", i), policy, o)
		c.Instrument(b.mem, i)
		b.net.Attach(c)
		b.ctrls = append(b.ctrls, c)
	}
	if s.ber > 0 {
		b.rnd = errmodel.NewRandom(s.ber, s.seed)
		b.flips = append(b.flips, b.rnd)
		if s.eofOnly {
			b.net.AddDisturber(errmodel.EOFOnly{Inner: b.rnd})
		} else {
			b.net.AddDisturber(b.rnd)
		}
	}
	if s.models != nil {
		for _, d := range s.models() {
			b.net.AddDisturber(d)
			if g, ok := d.(errmodel.EOFOnly); ok {
				d = g.Inner
			}
			if fc, ok := d.(errmodel.FlipCounter); ok {
				b.flips = append(b.flips, fc)
			}
		}
	}
	if s.setup != nil {
		s.setup(b.ctrls)
	}
	return b
}

// arrival enqueues f at station when the bus reaches slot.
type arrival struct {
	slot    uint64
	station int
	f       frame.Frame
}

// steadySeen records what the steady windows of a run began with.
type steadySeen struct {
	// phases counts, per station phase, the windows that began with some
	// station in that phase.
	phases map[bus.Phase]int
	// idleQueued reports a window that began with a station idle behind
	// a queued frame.
	idleQueued bool
	// dominant counts the windows under a dominant bus; inEpisode those
	// that began with a station inside an EOF episode, passiveEpisode
	// with an error-passive one, rejectWait with a MajorCAN station
	// waiting out a rejected episode (reported as a delimiter inside the
	// EOF region).
	dominant, inEpisode, passiveEpisode, rejectWait int
}

// runLockstep drives ref through the reference Step loop and fast
// through eng, one Advance at a time, applying the arrivals to both at
// their slots, and requires deep-equal controller states, bus clocks and
// event streams after every Advance — so every window end is checked.
// It returns what the steady windows began with.
func runLockstep(t *testing.T, ref, fast *bench, eng *fastpath.Engine, arrivals []arrival, slots uint64) steadySeen {
	t.Helper()
	seen := steadySeen{phases: map[bus.Phase]int{}}
	for fast.net.Slot() < slots {
		now := fast.net.Slot()
		budget := slots - now
		for _, a := range arrivals {
			if a.slot == now {
				for _, b := range []*bench{ref, fast} {
					f := a.f
					f.Data = append([]byte(nil), a.f.Data...)
					if err := b.ctrls[a.station].Enqueue(&f); err != nil {
						t.Fatal(err)
					}
				}
			}
			if a.slot > now {
				budget = min(budget, a.slot-now)
			}
		}
		views := make([]bus.ViewContext, len(fast.ctrls))
		queued := make([]int, len(fast.ctrls))
		passive := make([]bool, len(fast.ctrls))
		dominant := false
		for i, c := range fast.ctrls {
			views[i], queued[i] = c.View(), c.QueueLen()
			passive[i] = c.Mode() == node.ErrorPassive
			dominant = dominant || c.Drive() == bitstream.Dominant
		}
		before := eng.Counters().Steady
		k := eng.Advance(int(budget))
		if eng.Counters().Steady > before {
			if dominant {
				seen.dominant++
			}
			inEpisode, passiveEpisode, rejectWait := false, false, false
			for i, v := range views {
				seen.phases[v.Phase]++
				if v.Phase == bus.PhaseIdle && queued[i] > 0 {
					seen.idleQueued = true
				}
				if v.EOFRel != 0 {
					inEpisode = true
					passiveEpisode = passiveEpisode || passive[i]
					rejectWait = rejectWait || v.Phase == bus.PhaseErrorDelim
				}
			}
			seen.inEpisode += b2i(inEpisode)
			seen.passiveEpisode += b2i(passiveEpisode)
			seen.rejectWait += b2i(rejectWait)
		}
		ref.net.Run(k)
		sameBench(t, ref, fast)
	}
	return seen
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameBench requires the two benches to be in the same state.
func sameBench(t *testing.T, ref, fast *bench) {
	t.Helper()
	if rs, fs := ref.net.Snapshot(), fast.net.Snapshot(); rs != fs {
		t.Fatalf("bus clocks diverged: reference %+v, fast %+v", rs, fs)
	}
	if rb, fb := ref.net.BusySlots(), fast.net.BusySlots(); rb != fb {
		t.Fatalf("slot %d: busy slots diverged: reference %d, fast %d", fast.net.Slot(), rb, fb)
	}
	for i := range ref.ctrls {
		if rs, fs := ref.ctrls[i].Snapshot(), fast.ctrls[i].Snapshot(); !reflect.DeepEqual(rs, fs) {
			t.Fatalf("slot %d: n%d diverged:\n  reference: %+v\n  fast:      %+v", fast.net.Slot(), i, rs, fs)
		}
	}
	if !reflect.DeepEqual(ref.mem.Events(), fast.mem.Events()) {
		t.Fatalf("slot %d: event streams diverged", fast.net.Slot())
	}
	for i := range ref.flips {
		if rf, ff := ref.flips[i].Flips(), fast.flips[i].Flips(); rf != ff {
			t.Fatalf("slot %d: flips of model %d diverged: reference %d, fast %d", fast.net.Slot(), i, rf, ff)
		}
	}
}

// benchPair builds a reference and a fast bench of one spec.
func benchPair(t *testing.T, s benchSpec) (ref, fast *bench, eng *fastpath.Engine) {
	t.Helper()
	ref, fast = newBench(t, s), newBench(t, s)
	return ref, fast, fastpath.Install(fast.net)
}

func stations(n int, o node.Options) []node.Options {
	opts := make([]node.Options, n)
	for i := range opts {
		opts[i] = o
	}
	return opts
}

func dataFrame(id uint32, b byte) frame.Frame {
	return frame.Frame{ID: id, Data: []byte{b, 0x5A, 0xA5, b ^ 0xFF}}
}

// TestQuietWindowsMatchReference drives each protocol state a quiet
// window covers — suspend, intermission with a frame queued behind it,
// idle with an empty queue, a disconnected station with and without
// bus-off recovery, delimiters — under both engines, window by window,
// and checks the windows really opened in the state under test.
func TestQuietWindowsMatchReference(t *testing.T) {
	t.Run("error-passive suspend", func(t *testing.T) {
		ref, fast, eng := benchPair(t, benchSpec{
			policy: "majorcan_5",
			opts:   stations(3, node.Options{}),
			setup: func(ctrls []*node.Controller) {
				ctrls[0].SetErrorCounters(200, 0)
				for i := 0; i < 4; i++ {
					f := dataFrame(0x120, byte(i))
					if err := ctrls[0].Enqueue(&f); err != nil {
						t.Fatal(err)
					}
				}
			},
		})
		seen := runLockstep(t, ref, fast, eng, nil, 1500)
		if seen.phases[bus.PhaseSuspend] == 0 {
			t.Fatalf("no quiet window began in suspend (phases %v)", seen.phases)
		}
		if fast.ctrls[0].TxSuccesses() != 4 || fast.ctrls[0].Mode() != node.ErrorPassive {
			t.Fatalf("%d frames sent, mode %v: want 4, error-passive", fast.ctrls[0].TxSuccesses(), fast.ctrls[0].Mode())
		}
	})

	t.Run("queued frame waits out intermission", func(t *testing.T) {
		ref, fast, eng := benchPair(t, benchSpec{policy: "can", opts: stations(3, node.Options{})})
		arrivals := []arrival{
			{slot: 0, station: 0, f: dataFrame(0x100, 1)},
			{slot: 30, station: 1, f: dataFrame(0x101, 2)},  // queued behind n0's frame
			{slot: 600, station: 2, f: dataFrame(0x102, 3)}, // on an idle bus
		}
		seen := runLockstep(t, ref, fast, eng, arrivals, 900)
		if seen.phases[bus.PhaseIntermission] == 0 || seen.phases[bus.PhaseIdle] == 0 {
			t.Fatalf("quiet windows did not cover intermission and idle (phases %v)", seen.phases)
		}
		if seen.idleQueued {
			t.Fatal("a quiet window began with a station idle behind a queued frame")
		}
		for i, c := range fast.ctrls {
			if c.TxSuccesses() != 1 {
				t.Fatalf("n%d sent %d frames, want 1", i, c.TxSuccesses())
			}
		}
	})

	for _, recover := range []bool{false, true} {
		t.Run(fmt.Sprintf("bus-off AutoRecover=%v", recover), func(t *testing.T) {
			ref, fast, eng := benchPair(t, benchSpec{
				policy: "majorcan_5",
				opts:   stations(3, node.Options{AutoRecover: recover}),
				setup:  func(ctrls []*node.Controller) { ctrls[2].ForceBusOff() },
			})
			arrivals := []arrival{
				{slot: 0, station: 0, f: dataFrame(0x100, 1)},
				{slot: 2500, station: 1, f: dataFrame(0x101, 2)},
			}
			seen := runLockstep(t, ref, fast, eng, arrivals, 3000)
			if recover {
				if m := fast.ctrls[2].Mode(); m != node.ErrorActive {
					t.Fatalf("n2 is %v after 3000 slots, want recovered", m)
				}
				if seen.phases[bus.PhaseIdle] == 0 {
					t.Fatalf("no quiet window after the recovery (phases %v)", seen.phases)
				}
				return
			}
			if m := fast.ctrls[2].Mode(); m != node.BusOff {
				t.Fatalf("n2 is %v, want bus-off", m)
			}
			if seen.phases[bus.PhaseOff] == 0 {
				t.Fatalf("no quiet window began with n2 off (phases %v)", seen.phases)
			}
		})
	}

	// An ungated model at a high rate disturbs delimiters: a flip before
	// the last delimiter bit is a form error, at the last bit an overload
	// condition. Both must end a quiet window before the flipped bit.
	t.Run("ungated Random in delimiters", func(t *testing.T) {
		var formInDelim, overloadAtLast, delimWindows int
		for seed := int64(1); seed <= 12; seed++ {
			for _, policy := range []string{"can", "majorcan_5"} {
				s := benchSpec{policy: policy, opts: stations(4, node.Options{}), ber: 4e-3, seed: seed}
				ref, fast, eng := benchPair(t, s)
				probe := &delimProbe{ctrls: ref.ctrls}
				ref.net.AddProbe(probe)
				var arrivals []arrival
				for i := 0; i < 16; i++ {
					arrivals = append(arrivals, arrival{slot: uint64(i * 150), station: i % 4, f: dataFrame(uint32(0x100+i), byte(i))})
				}
				seen := runLockstep(t, ref, fast, eng, arrivals, 2600)
				formInDelim += probe.form
				overloadAtLast += probe.overload
				delimWindows += seen.phases[bus.PhaseErrorDelim] + seen.phases[bus.PhaseOverloadDelim]
			}
		}
		if formInDelim == 0 || overloadAtLast == 0 || delimWindows == 0 {
			t.Fatalf("%d flips mid-delimiter, %d at the last delimiter bit, %d quiet windows in delimiters: want all > 0",
				formInDelim, overloadAtLast, delimWindows)
		}
	})
}

// delimProbe counts, in a reference run, disturbed delimiter bits: those
// that raised a form error (before the last bit) and those that raised
// an overload condition (at the last bit).
type delimProbe struct {
	ctrls          []*node.Controller
	forms, ovls    []uint64
	form, overload int
}

func (p *delimProbe) OnBit(_ uint64, level bitstream.Level, _, samples []bitstream.Level, views []bus.ViewContext) {
	if p.forms == nil {
		p.forms, p.ovls = make([]uint64, len(p.ctrls)), make([]uint64, len(p.ctrls))
	}
	for i, c := range p.ctrls {
		form, ovl := c.ErrorCount(node.ErrForm), c.ErrorCount(node.ErrOverload)
		inDelim := views[i].Phase == bus.PhaseErrorDelim || views[i].Phase == bus.PhaseOverloadDelim
		if inDelim && samples[i] != level {
			if form > p.forms[i] {
				p.form++
			}
			if ovl > p.ovls[i] {
				p.overload++
			}
		}
		p.forms[i], p.ovls[i] = form, ovl
	}
}

// TestEngineCountersOnEOFGatedMonteCarlo runs the Monte Carlo shape of
// the paper's Table 1 — MajorCAN_5, five stations, an EOF-gated model at
// ber* = 0.02, one frame at a time until the bus is quiet — under both
// engines and requires identical runs, and that every execution path of
// the fast engine fired: stepped slots, transmitter windows, constant-
// time pipeline adoptions (one per clean transmission at least) and
// steady windows. Steady windows batch the end-of-frame episodes, so at
// most 18 slots per frame are stepped.
func TestEngineCountersOnEOFGatedMonteCarlo(t *testing.T) {
	s := benchSpec{policy: "majorcan_5", opts: stations(5, node.Options{}), ber: 0.02, eofOnly: true, seed: 1}
	ref, fast, eng := benchPair(t, s)
	const frames = 60
	quiet := func(b *bench) func() bool {
		return func() bool {
			for _, c := range b.ctrls {
				if !c.Idle() {
					return false
				}
			}
			return true
		}
	}
	for i := 0; i < frames; i++ {
		for _, b := range []*bench{ref, fast} {
			f := dataFrame(0x200, byte(i))
			if err := b.ctrls[0].Enqueue(&f); err != nil {
				t.Fatal(err)
			}
			if !b.net.RunUntil(quiet(b), 4000) {
				t.Fatalf("frame %d did not settle", i)
			}
			b.net.Run(4)
		}
		sameBench(t, ref, fast)
	}
	c := eng.Counters()
	total := c.Stepped + c.TxWindow + c.Steady
	if total != fast.net.Slot() {
		t.Fatalf("counters cover %d slots, the bus ran %d", total, fast.net.Slot())
	}
	if c.Stepped == 0 || c.TxWindow == 0 || c.Steady == 0 || c.Adoptions < frames {
		t.Fatalf("counters %+v: want every path to fire, and an adoption per frame", c)
	}
	if perFrame := float64(c.Stepped) / frames; perFrame > 18 {
		t.Fatalf("%.1f stepped slots per frame, want at most 18 (counters %+v)", perFrame, c)
	}
	if ref.rnd.Flips() == 0 {
		t.Fatal("the error model never fired")
	}
	t.Logf("%d frames, %d slots: %+v", frames, total, c)
}

// TestAdoptionFollowsEncodedFrame enqueues a higher-priority frame at the
// transmitter mid-transmission: it queues behind the frame on the wire,
// which the window reaching the ACK slot builds the transmitter's
// pipeline from, and both engines must agree.
func TestAdoptionFollowsEncodedFrame(t *testing.T) {
	ref, fast, eng := benchPair(t, benchSpec{policy: "majorcan_5", opts: stations(3, node.Options{})})
	arrivals := []arrival{
		{slot: 0, station: 0, f: dataFrame(0x200, 1)},
		{slot: 20, station: 0, f: dataFrame(0x100, 2)},
	}
	runLockstep(t, ref, fast, eng, arrivals, 600)
	if c := eng.Counters(); c.TxWindow == 0 {
		t.Fatalf("counters %+v: the transmission never fast-forwarded", c)
	}
}

// TestSteadyWindowsMatchReference runs the four protocols through
// end-of-frame episodes under EOF-gated error models — a gated Random, a
// gated GlobalRandom, and one Random registered both gated and ungated —
// under both engines, window by window, on a five-station bus with an
// error-passive station. It requires identical runs after every Advance
// and that steady windows really covered what the episodes hold: windows
// under a dominant bus and inside episodes, MajorCAN's sampling,
// extended flag and reject wait, an error-passive station's episode and
// overload flags, with vote-corrected accepts in the runs. A gated
// GlobalRandom has no lookahead, so no window may open inside an
// episode under it.
func TestSteadyWindowsMatchReference(t *testing.T) {
	models := []struct {
		name  string
		build func(seed int64) []bus.Disturber
	}{
		{"EOFOnly(Random)", func(seed int64) []bus.Disturber {
			return []bus.Disturber{errmodel.EOFOnly{Inner: errmodel.NewRandom(0.03, seed)}}
		}},
		{"EOFOnly(GlobalRandom)", func(seed int64) []bus.Disturber {
			return []bus.Disturber{errmodel.EOFOnly{Inner: errmodel.NewGlobalRandom(0.03, seed)}}
		}},
		{"Random gated and ungated", func(seed int64) []bus.Disturber {
			r := errmodel.NewRandom(2e-3, seed)
			return []bus.Disturber{r, errmodel.EOFOnly{Inner: r}}
		}},
	}
	total := steadySeen{phases: map[bus.Phase]int{}}
	votes := 0
	for _, policy := range []string{"can", "minorcan", "majorcan_3", "majorcan_5"} {
		for _, m := range models {
			t.Run(policy+"/"+m.name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					ref, fast, eng := benchPair(t, benchSpec{
						policy: policy,
						opts:   stations(5, node.Options{}),
						models: func() []bus.Disturber { return m.build(seed) },
						// TEC keeps n4 error-passive: only its own
						// successes lower it.
						setup: func(ctrls []*node.Controller) { ctrls[4].SetErrorCounters(200, 0) },
					})
					var arrivals []arrival
					for i := 0; i < 12; i++ {
						arrivals = append(arrivals, arrival{slot: uint64(i * 180), station: i % 5, f: dataFrame(uint32(0x100+i), byte(i))})
					}
					seen := runLockstep(t, ref, fast, eng, arrivals, 2400)
					if m.name == "EOFOnly(GlobalRandom)" && seen.inEpisode > 0 {
						t.Fatalf("seed %d: %d steady windows inside an episode under a gated whole-bus model", seed, seen.inEpisode)
					}
					for p, n := range seen.phases {
						total.phases[p] += n
					}
					total.dominant += seen.dominant
					total.inEpisode += seen.inEpisode
					total.passiveEpisode += seen.passiveEpisode
					total.rejectWait += seen.rejectWait
					for _, e := range fast.mem.Events() {
						if e.Kind == obs.KindEOFVoteCorrected {
							votes++
						}
					}
				}
			})
		}
	}
	t.Logf("steady windows: %+v, %d vote-corrected accepts", total, votes)
	for _, p := range []bus.Phase{bus.PhaseSampling, bus.PhaseExtFlag, bus.PhaseErrorFlag, bus.PhaseOverloadFlag} {
		if total.phases[p] == 0 {
			t.Errorf("no steady window began with a station in %v", p)
		}
	}
	if total.dominant == 0 || total.inEpisode == 0 || total.passiveEpisode == 0 || total.rejectWait == 0 || votes == 0 {
		t.Errorf("steady windows %+v, %d vote-corrected accepts: want windows under a dominant bus, inside episodes, in an error-passive station's episode and in a reject wait, and vote-corrected accepts",
			total, votes)
	}
}
