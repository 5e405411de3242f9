// Package fastpath is the fast bit-slot engine (DESIGN.md §15): a
// drop-in bus.Engine that executes the same simulation the reference
// Network.Step loop does, bit-identically, but faster. It has four
// layers:
//
//   - a packed per-slot core: drive levels collapse into one uint64 word
//     (bit i set = station i drives dominant) so the wired-AND is a
//     single comparison, disturbances apply as an XOR parity mask, the
//     per-slot View materialisation disappears, and the loop runs over
//     concrete *node.Controller values instead of interfaces — zero
//     allocations per slot;
//
//   - quiescent fast-forward: while a single transmitter is past
//     arbitration, every other station provably stays recessive and
//     outside the disturbable EOF region, and the ungated spatial
//     models' streams hold only clean draws (looked ahead and buffered
//     in errmodel.Random), the transmitter's pre-stuffed encoding is
//     replayed in a batch up to (excluding) the ACK slot. Receivers
//     whose receive pipeline mirrors the transmitter's skip their
//     per-bit latches entirely and adopt the transmitter's pipeline at
//     the window end; a window that reaches the ACK slot sets the
//     transmitter's own pipeline from its frame in constant time
//     instead of replaying the window's bits;
//
//   - quiet windows: while every station sits in a stretch it leaves
//     only by a transition a known number of slots ahead (a delimiter
//     past its first recessive bit, intermission, suspend) or not at all
//     (idle with an empty queue, disconnected without recovery), the bus
//     is recessive and nothing but counters moves; the engine latches
//     the stretch in one batch up to one slot before the first
//     transition or firing draw;
//
//   - eligibility fallback: anything the fast core does not model
//     exactly — probes, output faults, sample skews, scripted or unknown
//     disturbers, non-Controller stations, more than 64 stations — drops
//     the whole plan to the reference Step loop, so exotic configurations
//     are never approximated, merely not accelerated.
//
// The engine re-derives its plan whenever the network's configuration
// version changes, so disturbers registered after installation (the
// Monte Carlo harness adds its error model to a built cluster) are
// picked up before the next slot executes.
//
// Equivalence is not asserted, it is engineered per observable:
// stations latch in station order with the exact levels the reference
// would sample, RNG streams advance through the same errmodel draw
// primitives in the same (slot, station, disturber) order, frame-start
// events replicate the reference edge scan, fast-forward windows end
// before any slot whose outcome could depend on a draw or a
// non-transmitter drive, and quiet windows end before any slot that
// changes a station's state or holds a firing draw. The differential
// oracle in this package's tests checks byte-identical event streams,
// verdicts and sweep digests against the reference engine.
package fastpath

import (
	"math"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/node"
	"repro/internal/obs"
)

// planMode says how the engine executes slots under the current plan.
type planMode uint8

const (
	// planReference delegates every slot to Network.Step.
	planReference planMode = iota
	// planFast runs the packed core, with fast-forward when available.
	planFast
)

// entryKind classifies one registered disturber for specialised
// replication of its draw stream.
type entryKind uint8

const (
	// entryNever is a rate-zero model: it can never fire, and skipping
	// its draws is unobservable (nothing reads the stream position).
	entryNever entryKind = iota
	// entryRandom is an ungated spatial model: one draw per (slot,
	// station). A disturbance is possible every slot, so fast-forward
	// windows end before the first slot holding a firing draw, found by
	// looking ahead in the stream (errmodel.Random.CleanAhead).
	entryRandom
	// entryRandomEOF is a spatial model gated on the EOF region: draws
	// happen only for stations inside an EOF episode.
	entryRandomEOF
	// entryGlobal is an ungated whole-bus model: one draw per slot. It
	// has no lookahead, so fast-forward is off while one is registered.
	entryGlobal
	// entryGlobalEOF is a whole-bus model gated on the EOF region: the
	// slot's draw happens at the first in-episode station.
	entryGlobalEOF
)

// entry is one planned disturber.
type entry struct {
	kind entryKind
	rnd  *errmodel.Random
	glb  *errmodel.GlobalRandom
}

// lookahead is one distinct ungated spatial model and the number of
// draws a slot takes from its stream (stations times the entries that
// share the instance).
type lookahead struct {
	rnd     *errmodel.Random
	perSlot int
}

// Engine is the fast bit-slot executor. Create one per bus.Network with
// Install (or New followed by Network.SetEngine); it must be driven
// from the network's goroutine, like the network itself.
type Engine struct {
	net     *bus.Network
	version uint64
	mode    planMode
	emitter obs.Sink

	// planFast state: concrete stations and specialised disturbers.
	ctrls     []*node.Controller
	entries   []entry
	ahead     []lookahead // ungated spatial models, one per instance
	noHorizon bool        // an ungated whole-bus model: a disturbance is possible in any slot
	hasGated  bool        // draws depend on per-station EOF position

	counters Counters
}

// Counters tallies how an engine executed its slots: plain integers,
// one add per slot or window, nothing allocated.
type Counters struct {
	// Stepped counts slots executed one at a time, by the packed core or
	// the reference Step loop.
	Stepped uint64
	// TxWindow counts slots fast-forwarded inside transmitter windows.
	TxWindow uint64
	// Quiet counts slots batch-latched in quiet windows.
	Quiet uint64
	// Adoptions counts transmitter windows that reached the ACK slot and
	// set the transmitter's receive pipeline in constant time.
	Adoptions uint64
}

// Counters returns the engine's execution tallies so far.
func (e *Engine) Counters() Counters { return e.counters }

var _ bus.Engine = (*Engine)(nil)

// New creates an engine for the network without installing it.
func New(n *bus.Network) *Engine { return &Engine{net: n} }

// Install creates an engine and installs it as the network's batch
// executor.
func Install(n *bus.Network) *Engine {
	e := New(n)
	n.SetEngine(e)
	return e
}

// Advance implements bus.Engine: it simulates between 1 and budget bit
// slots and returns how many it consumed.
func (e *Engine) Advance(budget int) int {
	if budget < 1 {
		budget = 1
	}
	if e.version != e.net.Version() {
		e.replan()
	}
	if e.mode == planFast {
		if k := e.fastForward(budget); k > 0 {
			return k
		}
		if k := e.quietWindow(budget); k > 0 {
			return k
		}
		e.stepSlot()
	} else {
		e.net.Step()
	}
	e.counters.Stepped++
	return 1
}

// replan rebuilds the execution plan from the network's current
// configuration. Runs once per configuration change, not per slot.
//
//lint:allow hotpath -- plan (re)construction is cold: once per network configuration change, never per bit slot.
func (e *Engine) replan() {
	e.version = e.net.Version()
	e.emitter = e.net.Emitter()
	e.ctrls = e.ctrls[:0]
	e.entries = e.entries[:0]
	e.ahead = e.ahead[:0]
	e.noHorizon, e.hasGated = false, false
	e.mode = planReference

	n := e.net.Stations()
	if n > 64 || e.net.NumProbes() > 0 || e.net.NumOutputFaults() > 0 || e.net.NumSkews() > 0 {
		return
	}
	for i := 0; i < n; i++ {
		c, ok := e.net.StationAt(i).(*node.Controller)
		if !ok {
			return
		}
		e.ctrls = append(e.ctrls, c)
	}
	for _, d := range e.net.DisturberList() {
		en, ok := classify(d)
		if !ok {
			return
		}
		switch en.kind {
		case entryNever:
			continue // never fires, never draws: drop it from the plan
		case entryRandom:
			e.addLookahead(en.rnd, n)
		case entryGlobal:
			e.noHorizon = true
		case entryRandomEOF, entryGlobalEOF:
			e.hasGated = true
		}
		e.entries = append(e.entries, en)
	}
	e.mode = planFast
}

// addLookahead accounts one ungated spatial entry drawing once per
// station per slot from r; an instance registered more than once draws
// that many times per station.
//
//lint:allow hotpath -- plan (re)construction is cold: once per network configuration change, never per bit slot.
func (e *Engine) addLookahead(r *errmodel.Random, stations int) {
	if stations == 0 {
		return // a bus without stations takes no draws
	}
	for i := range e.ahead {
		if e.ahead[i].rnd == r {
			e.ahead[i].perSlot += stations
			return
		}
	}
	e.ahead = append(e.ahead, lookahead{rnd: r, perSlot: stations})
}

// classify maps a registered disturber to a specialised entry, or
// reports ok=false for models the packed core cannot replicate draw-
// for-draw (scripts, user-defined disturbers), which force the
// reference plan.
func classify(d bus.Disturber) (entry, bool) {
	switch v := d.(type) {
	case *errmodel.Random:
		if v.AlwaysClean() {
			return entry{kind: entryNever}, true
		}
		return entry{kind: entryRandom, rnd: v}, true
	case *errmodel.GlobalRandom:
		if v.AlwaysClean() {
			return entry{kind: entryNever}, true
		}
		return entry{kind: entryGlobal, glb: v}, true
	case errmodel.EOFOnly:
		inner, ok := classify(v.Inner)
		if !ok {
			return entry{}, false
		}
		switch inner.kind {
		case entryNever:
			return inner, true
		case entryRandom:
			inner.kind = entryRandomEOF
			return inner, true
		case entryGlobal:
			inner.kind = entryGlobalEOF
			return inner, true
		default:
			return entry{}, false
		}
	default:
		return entry{}, false
	}
}

// stepSlot executes one bit slot through the packed core: drive word,
// wired-AND, frame-start edge, disturbance parity mask, latches. It is
// exact for every protocol situation (arbitration, flags, overloads,
// recovery) because it performs the same per-station calls as the
// reference loop, only devirtualised and without materialising views.
func (e *Engine) stepSlot() {
	var word uint64
	for i, c := range e.ctrls {
		if c.Drive() == bitstream.Dominant {
			word |= 1 << uint(i)
		}
	}
	level := bitstream.Recessive
	if word != 0 {
		level = bitstream.Dominant
	}
	slot := e.net.Slot()
	if e.emitter != nil && level == bitstream.Dominant && e.net.PrevLevel() == bitstream.Recessive {
		e.emitFrameStart(slot)
	}
	if flips := e.flipMask(slot); flips == 0 {
		for _, c := range e.ctrls {
			c.Latch(level)
		}
	} else {
		inv := level.Invert()
		for i, c := range e.ctrls {
			if flips&(1<<uint(i)) != 0 {
				c.Latch(inv)
			} else {
				c.Latch(level)
			}
		}
	}
	e.net.CommitSlot(level)
}

// flipMask draws this slot's disturbances and returns the parity mask
// of stations whose sample inverts (an odd number of firing models).
// Draw order replicates the reference loop exactly: stations outer,
// disturbers inner, with the EOF gate consulted on the station's
// pre-latch state — so the RNG streams and flip counters stay
// bit-identical to a reference run.
func (e *Engine) flipMask(slot uint64) uint64 {
	if len(e.entries) == 0 {
		return 0
	}
	var mask uint64
	for i, c := range e.ctrls {
		bit := uint64(1) << uint(i)
		inEOF := false
		eofKnown := false
		for k := range e.entries {
			en := &e.entries[k]
			switch en.kind {
			case entryRandom:
				if en.rnd.Sample() {
					mask ^= bit
				}
			case entryRandomEOF:
				if !eofKnown {
					inEOF, eofKnown = c.EOFRel() != 0, true
				}
				if inEOF && en.rnd.Sample() {
					mask ^= bit
				}
			case entryGlobal:
				if en.glb.SampleSlot(slot) {
					mask ^= bit
				}
			case entryGlobalEOF:
				if !eofKnown {
					inEOF, eofKnown = c.EOFRel() != 0, true
				}
				if inEOF && en.glb.SampleSlot(slot) {
					mask ^= bit
				}
			}
		}
	}
	return mask
}

// emitFrameStart replicates the reference edge scan: on a recessive-to-
// dominant edge, the lowest-indexed station about to drive its SOF is
// reported with the number of simultaneous contenders. Pre-latch state
// is scanned, exactly like the views the reference captures before
// latching.
func (e *Engine) emitFrameStart(slot uint64) {
	if e.emitter == nil {
		return
	}
	first, contenders, attempts := -1, 0, 0
	for i, c := range e.ctrls {
		if c.StartingFrame() {
			if first < 0 {
				first, attempts = i, c.Attempts()
			}
			contenders++
		}
	}
	if first < 0 {
		return
	}
	e.emitter.Emit(obs.Event{
		Slot:    slot,
		Kind:    obs.KindFrameStart,
		Station: int16(first),
		Flags:   obs.FlagTransmitter,
		Attempt: uint16(attempts),
		Aux:     uint32(contenders),
	})
}

// fastForward batch-advances through a quiescent window and returns how
// many slots it consumed (0 when no window applies). The window is the
// transmitter's remaining pre-stuffed bits before the ACK slot, bounded
// by budget and by the slots whose ungated spatial draws are all clean,
// and it ends — before the bit in question — as soon as any
// non-mirroring station would drive dominant (a starting transmitter,
// an error or overload flag, a receiver's ACK) or would sit in the EOF
// region where a gated error model draws. Within the window the bus
// level is therefore exactly the transmitter's encoding, no draw fires
// and no gated draw occurs in either engine (the ungated models' clean
// draws are consumed in a batch), and every skipped per-bit effect is
// either replayed (transmitter and non-mirroring stations latch
// normally) or provably absent (mirroring receivers, whose pipeline is
// adopted from the transmitter at the end).
func (e *Engine) fastForward(budget int) int {
	if e.noHorizon {
		// A whole-bus disturbance is possible in any slot.
		return 0
	}
	tx := -1
	for i, c := range e.ctrls {
		if c.Transmitting() {
			if tx >= 0 {
				return 0 // two in-frame transmitters: still in arbitration
			}
			tx = i
		} else if c.StartingFrame() {
			return 0 // SOF contention this slot
		}
	}
	if tx < 0 {
		return 0
	}
	t := e.ctrls[tx]
	win := t.TxWindow()
	if len(win) == 0 {
		return 0
	}
	if len(win) > budget {
		win = win[:budget]
	}
	for _, a := range e.ahead {
		if clean := a.rnd.CleanAhead(len(win)*a.perSlot) / a.perSlot; clean < len(win) {
			win = win[:clean]
		}
	}
	if len(win) == 0 {
		return 0
	}
	// Partition the other stations once: mirrors are adopted wholesale at
	// the end, everything else must be checked and latched per bit. The
	// transmitter is handled by the batched seam below, so it appears in
	// neither mask.
	var mirror, others uint64
	for i, c := range e.ctrls {
		if i == tx {
			continue
		}
		if c.MirrorsPipeline(t) {
			mirror |= 1 << uint(i)
		} else {
			others |= 1 << uint(i)
		}
	}
	n := len(win)
	if others != 0 {
		// Stations outside the mirror set evolve independently (an idle
		// late joiner, a bus-off node recovering, a non-mirroring
		// receiver); step them bit by bit and stop the window — before
		// the bit in question — at the first one that would speak up.
		// The transmitter's own latches commute with theirs within a
		// slot: a latch only touches the latching station's state, and
		// nothing here reads the transmitter mid-window.
		n = 0
		for _, lvl := range win {
			quiet := true
			for m := others; m != 0; m &= m - 1 {
				c := e.ctrls[bits.TrailingZeros64(m)]
				if c.Drive() != bitstream.Recessive || (e.hasGated && c.EOFRel() != 0) {
					quiet = false
					break
				}
			}
			if !quiet {
				break
			}
			for m := others; m != 0; m &= m - 1 {
				e.ctrls[bits.TrailingZeros64(m)].Latch(lvl)
			}
			n++
		}
		if n == 0 {
			return 0
		}
	}
	win = win[:n]
	if t.LatchTxWindow(win) {
		e.counters.Adoptions++
	}
	for m := mirror; m != 0; m &= m - 1 {
		e.ctrls[bits.TrailingZeros64(m)].AdoptPipeline(t, uint64(n))
	}
	for _, a := range e.ahead {
		a.rnd.SkipClean(n * a.perSlot)
	}
	var dominant uint64
	for _, lvl := range win {
		if lvl == bitstream.Dominant {
			dominant++
		}
	}
	e.net.SkipSlots(uint64(n), dominant, win[n-1])
	e.counters.TxWindow += uint64(n)
	return n
}

// quietWindow batch-latches a stretch of slots in which every station is
// quiet (node.Controller.QuietSlots: a delimiter past its first recessive
// bit, intermission, suspend, idle with an empty queue, disconnected
// without recovery) and returns how many it consumed (0 when no window
// applies). Quiet stations drive recessive, so the bus is recessive
// throughout; the window is bounded by budget, by the slots whose
// ungated spatial draws are all clean, and by every station's quiet
// slots, so it ends one slot before any station's next transition and
// the next slot — a transition, or the bit a disturbance fires in — runs
// through the per-slot core. Gated models draw nothing here: no quiet
// station is in the EOF region.
func (e *Engine) quietWindow(budget int) int {
	if e.noHorizon {
		return 0
	}
	n := budget
	for _, c := range e.ctrls {
		if n = min(n, c.QuietSlots()); n == 0 {
			return 0
		}
	}
	for _, a := range e.ahead {
		n = min(n, math.MaxInt/a.perSlot)
		n = min(n, a.rnd.CleanAhead(n*a.perSlot)/a.perSlot)
	}
	if n == 0 {
		return 0
	}
	for _, c := range e.ctrls {
		c.LatchQuiet(n)
	}
	for _, a := range e.ahead {
		a.rnd.SkipClean(n * a.perSlot)
	}
	e.net.SkipSlots(uint64(n), 0, bitstream.Recessive)
	e.counters.Quiet += uint64(n)
	return n
}
