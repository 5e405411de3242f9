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
//   - steady windows: while every station's drive is constant and its
//     latch of the resulting bus level — recessive or dominant — only
//     advances counters up to a known slot (the EOF field, flags,
//     MajorCAN's sampling, extended flag and reject wait, delimiters,
//     intermission, suspend, idle, disconnected), the engine latches
//     the stretch in one batch up to one slot before the first
//     transition or firing draw, with the spatial models' draws — gated
//     on the EOF region or not — looked ahead like fast-forward's, and a
//     script's flips read ahead from its flip table;
//
//   - eligibility fallback: anything the fast core does not model
//     exactly — probes, output faults, sample skews, scripts with rules
//     matched per sample (AtSlot, AtPhase, a When condition), unknown
//     disturbers, non-Controller stations, more than 64 stations — drops
//     the whole plan to the reference Step loop, so exotic configurations
//     are never approximated, merely not accelerated. A script of
//     single-shot EOF-bit flips is data (errmodel.Script's flip table)
//     and runs on the packed core, gated on the EOF region; inside
//     episodes its table bounds steady windows by the next pending flip.
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
// non-transmitter drive, and steady windows end before any slot that
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
	// happen only for stations inside an EOF episode. Steady windows
	// bound it by the same lookahead, at one draw per in-episode station
	// per slot.
	entryRandomEOF
	// entryGlobal is an ungated whole-bus model: one draw per slot. It
	// has no lookahead, so fast-forward is off while one is registered.
	entryGlobal
	// entryGlobalEOF is a whole-bus model gated on the EOF region: the
	// slot's draw happens at the first in-episode station. It has no
	// lookahead, so no steady window opens while a station is in one.
	entryGlobalEOF
	// entryScript is a script of EOF-bit flips (errmodel.Script's flip
	// table): it can fire only for a station inside an EOF episode, at
	// the flips pending for its position and attempt. Its horizon is the
	// table itself: a steady window ends before the next pending flip of
	// any in-episode station (errmodel.Script.ClearEOF).
	entryScript
)

// entry is one planned disturber.
type entry struct {
	kind entryKind
	rnd  *errmodel.Random
	glb  *errmodel.GlobalRandom
	scr  *errmodel.Script
}

// lookahead is one distinct spatial model and the draws a slot takes
// from its stream: perSlot for its ungated registrations (stations times
// those entries), plus perEpisode for each station inside an EOF episode
// (its EOF-gated entries). An instance registered both ways has both.
type lookahead struct {
	rnd        *errmodel.Random
	perSlot    int
	perEpisode int
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
	ctrls       []*node.Controller
	entries     []entry
	ahead       []lookahead // spatial models, one per instance
	noHorizon   bool        // an ungated whole-bus model: a disturbance is possible in any slot
	hasGated    bool        // draws depend on per-station EOF position
	gatedGlobal bool        // an EOF-gated whole-bus model: no horizon while a station is in an episode

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
	// Steady counts slots batch-latched in steady windows.
	Steady uint64
	// Adoptions counts transmitter windows that reached the ACK slot and
	// set the transmitter's receive pipeline in constant time.
	Adoptions uint64
	// Reference counts the stepped slots delegated to Network.Step
	// because the plan is the reference loop.
	Reference uint64
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
		word := e.driveWord()
		if k := e.steadyWindow(word, budget); k > 0 {
			return k
		}
		e.stepSlot(word)
	} else {
		e.net.Step()
		e.counters.Reference++
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
	e.noHorizon, e.hasGated, e.gatedGlobal = false, false, false
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
			e.addLookahead(en.rnd, n, 0)
		case entryGlobal:
			e.noHorizon = true
		case entryRandomEOF:
			e.hasGated = true
			e.addLookahead(en.rnd, 0, 1)
		case entryGlobalEOF:
			e.hasGated, e.gatedGlobal = true, true
		case entryScript:
			e.hasGated = true
		}
		e.entries = append(e.entries, en)
	}
	e.mode = planFast
}

// addLookahead accounts one spatial entry drawing from r: perSlot
// draws a slot (one per station, ungated) or perEpisode (one per
// in-episode station, EOF-gated). An instance registered more than once
// adds up its entries.
//
//lint:allow hotpath -- plan (re)construction is cold: once per network configuration change, never per bit slot.
func (e *Engine) addLookahead(r *errmodel.Random, perSlot, perEpisode int) {
	if len(e.ctrls) == 0 {
		return // a bus without stations takes no draws
	}
	for i := range e.ahead {
		if a := &e.ahead[i]; a.rnd == r {
			a.perSlot += perSlot
			a.perEpisode += perEpisode
			return
		}
	}
	e.ahead = append(e.ahead, lookahead{rnd: r, perSlot: perSlot, perEpisode: perEpisode})
}

// classify maps a registered disturber to a specialised entry, or
// reports ok=false for models the packed core cannot replicate draw-
// for-draw (scripts with rules matched per sample, user-defined
// disturbers), which force the reference plan.
func classify(d bus.Disturber) (entry, bool) {
	switch v := d.(type) {
	case *errmodel.Script:
		if !v.TableOnly() {
			return entry{}, false
		}
		return entry{kind: entryScript, scr: v}, true
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

// driveWord returns this slot's drive word: bit i set when station i
// drives dominant.
func (e *Engine) driveWord() uint64 {
	var word uint64
	for i, c := range e.ctrls {
		if c.Drive() == bitstream.Dominant {
			word |= 1 << uint(i)
		}
	}
	return word
}

// stepSlot executes one bit slot through the packed core from its drive
// word: wired-AND, frame-start edge, disturbance parity mask, latches.
// It is exact for every protocol situation (arbitration, flags,
// overloads, recovery) because it performs the same per-station calls as
// the reference loop, only devirtualised and without materialising
// views.
func (e *Engine) stepSlot(word uint64) {
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
			case entryScript:
				if rel := c.EOFRel(); rel != 0 && en.scr.FireEOF(i, rel, c.Attempts()) {
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
	// No station is in an EOF episode: only ungated draws bound the window.
	win = win[:e.cleanSlots(len(win), 0)]
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
	e.skipClean(n, 0)
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

// steadyWindow batch-latches a stretch of slots in which every station
// is steady (node.Controller.SteadySlots) under the bus level its drive
// word makes, and returns how many it consumed (0 when no window
// applies). Steady stations keep their drives, so the level holds
// throughout, recessive or dominant; the window is bounded by budget, by
// every station's steady slots, and by the slots whose draws are all
// clean, so it ends one slot before any station's next transition and
// the next slot — a transition, or the bit a disturbance fires in — runs
// through the per-slot core. No station enters or leaves an EOF episode
// inside the window, so the draws per slot are constant: each spatial
// model takes one per station for its ungated registrations and one per
// in-episode station for its gated ones, bounded by the same lookahead,
// and a script's flip table bounds the window before the next flip
// pending for an in-episode station. A gated whole-bus model has no
// horizon, so it stops windows while any station is in an episode.
func (e *Engine) steadyWindow(word uint64, budget int) int {
	if e.noHorizon {
		return 0
	}
	level := bitstream.Recessive
	if word != 0 {
		level = bitstream.Dominant
	}
	n, inEpisode := budget, 0
	for _, c := range e.ctrls {
		if n = min(n, c.SteadySlots(level)); n == 0 {
			return 0
		}
		if c.EOFRel() != 0 {
			inEpisode++
		}
	}
	if inEpisode > 0 && e.gatedGlobal {
		return 0
	}
	if n = e.clearScripts(n); n == 0 {
		return 0
	}
	if n = e.cleanSlots(n, inEpisode); n == 0 {
		return 0
	}
	for _, c := range e.ctrls {
		c.LatchSteady(level, n)
	}
	e.skipClean(n, inEpisode)
	var dominant uint64
	if level == bitstream.Dominant {
		dominant = uint64(n)
	}
	e.net.SkipSlots(uint64(n), dominant, level)
	e.counters.Steady += uint64(n)
	return n
}

// clearScripts bounds a window of n slots by the scripts' flip tables:
// it returns how many of those slots hold no flip pending for an
// in-episode station, whose EOF position advances one per slot.
func (e *Engine) clearScripts(n int) int {
	for k := range e.entries {
		if en := &e.entries[k]; en.kind == entryScript {
			for i, c := range e.ctrls {
				if rel := c.EOFRel(); rel != 0 {
					if n = min(n, en.scr.ClearEOF(i, rel, c.Attempts())); n == 0 {
						return 0
					}
				}
			}
		}
	}
	return n
}

// draws returns how many draws a slot takes from the model's stream
// while inEpisode stations are inside an EOF episode.
func (a *lookahead) draws(inEpisode int) int {
	return a.perSlot + a.perEpisode*inEpisode
}

// cleanSlots bounds a window of n slots, with inEpisode stations inside
// an EOF episode throughout, by the spatial models' lookahead: it
// returns how many of those slots take only clean draws.
func (e *Engine) cleanSlots(n, inEpisode int) int {
	for i := range e.ahead {
		a := &e.ahead[i]
		if d := a.draws(inEpisode); d > 0 {
			n = min(n, math.MaxInt/d)
			n = min(n, a.rnd.CleanAhead(n*d)/d)
		}
	}
	return n
}

// skipClean consumes the looked-ahead clean draws of an n-slot window
// that cleanSlots allowed.
func (e *Engine) skipClean(n, inEpisode int) {
	for i := range e.ahead {
		a := &e.ahead[i]
		if d := a.draws(inEpisode); d > 0 {
			a.rnd.SkipClean(n * d)
		}
	}
}
