package node

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/frame"
	"repro/internal/obs"
)

// Mode is the fault confinement state of a controller.
type Mode uint8

const (
	// ErrorActive nodes signal errors with dominant (active) error flags.
	ErrorActive Mode = iota + 1
	// ErrorPassive nodes signal errors with recessive (passive) error
	// flags, which cannot force other nodes to see the error.
	ErrorPassive
	// BusOff nodes are disconnected from the bus.
	BusOff
	// SwitchedOff nodes disconnected themselves at the warning limit (the
	// policy the paper recommends to avoid the error-passive state) or were
	// crashed by fault injection.
	SwitchedOff
)

func (m Mode) String() string {
	switch m {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	case SwitchedOff:
		return "switched-off"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Fault confinement limits from the CAN specification.
const (
	// WarningLimit is the error counter value at which the error warning
	// notification is raised (a heavily disturbed bus).
	WarningLimit = 96
	// PassiveLimit is the error counter value at which a node becomes
	// error-passive.
	PassiveLimit = 128
	// BusOffLimit is the transmit error counter value at which a node goes
	// bus-off.
	BusOffLimit = 256
)

// Hooks receives controller events. Any field may be nil.
type Hooks struct {
	// OnDeliver fires when a received frame is accepted and delivered to
	// the upper layer.
	OnDeliver func(slot uint64, f *frame.Frame)
	// OnTxSuccess fires when the node's own transmission completes
	// successfully (frame removed from the transmit queue).
	OnTxSuccess func(slot uint64, f *frame.Frame)
	// OnError fires when the node detects an error (or overload condition).
	OnError func(slot uint64, kind ErrorKind, transmitter bool)
	// OnVerdict fires at the end of every end-of-frame episode with the
	// node's accept/reject decision for the frame.
	OnVerdict func(slot uint64, v Verdict, transmitter bool)
	// OnModeChange fires when the fault confinement mode changes.
	OnModeChange func(slot uint64, from, to Mode)
}

// Options configures a Controller.
type Options struct {
	// WarningSwitchOff disconnects the node as soon as an error counter
	// reaches the warning limit (96), the policy the paper assumes to keep
	// every node error-active ("every node is either helping to achieve
	// data consistency or disconnected").
	WarningSwitchOff bool
	// DisableRetransmission turns off automatic retransmission (single-shot
	// mode, present in real controllers; used by some tests).
	DisableRetransmission bool
	// AutoRecover re-enables a bus-off node after it monitors 128
	// occurrences of 11 consecutive recessive bits, per the CAN fault
	// confinement rules. Crashed nodes never recover.
	AutoRecover bool
	// Hooks receives controller events.
	Hooks Hooks
}

type ctrlState uint8

const (
	stOff ctrlState = iota + 1
	stIdle
	stStartTx
	stFrame
	stEpisode
	stErrorFlag
	stPassiveFlag
	stOverloadFlag
	stDelim
	stIntermission
	stSuspend
)

// Controller is a simulated CAN controller attached to a bus.Network. It
// implements bus.Station. The zero value is not usable; use New.
type Controller struct {
	name   string
	policy EOFPolicy
	opts   Options

	// The policy's EOFBits and DelimiterBits, read once.
	eofBits, delimBits int

	// enc is the transmit encoding of encoded, the queue head it was
	// last derived for (see txEncoding).
	enc     frame.Encoding
	encoded *frame.Frame

	// telemetry (nil when uninstrumented)
	ev      obs.Sink
	station int16

	machine
}

// machine is every field a latch can change: the controller's protocol
// state, as a value. Snapshot and Restore copy it whole, so a field added
// here is captured without further code; configuration, the policy's
// constants, hooks, the transmit encoding (a function of the queue head
// and the policy) and the telemetry sink stay outside it.
type machine struct {
	state ctrlState
	now   uint64 // bit slots latched so far (== network slot when attached at 0)

	// transmit side
	queue       txQueue
	transmitter bool
	txPos       int // offset into the head's encoding of the next bit to drive

	// receive pipeline
	destuff bitstream.Destuffer
	asm     frame.Assembler
	rxTail  int // tail bits latched after the assembler finished (CRCdel, ACK, ACKdel)

	// end of frame
	episode Episode

	// error/overload signalling
	flagLeft     int
	flagVerdict  Verdict
	delimAfter   After
	delimSeen    bool // first recessive of the delimiter seen
	delimCount   int
	waitDominant int // consecutive dominant bits while waiting for the delimiter
	overloads    int // consecutive overload frames

	intermCount int
	suspendLeft int
	lastTxSelf  bool
	flagOwnerTx bool

	// fault confinement
	tec, rec int
	mode     Mode

	attempts  int
	crashed   bool
	delivered uint64
	txOK      uint64
	errCount  [ErrOverload + 1]uint64 // indexed by ErrorKind

	// bus-off recovery (AutoRecover): 128 occurrences of 11 consecutive
	// recessive bits re-enable the node.
	recovRun int
	recovSeq int
}

var _ bus.Station = (*Controller)(nil)

// New creates a controller using the given end-of-frame policy.
func New(name string, policy EOFPolicy, opts Options) *Controller {
	if policy == nil {
		panic("node: nil EOFPolicy")
	}
	return &Controller{
		name:      name,
		policy:    policy,
		opts:      opts,
		eofBits:   policy.EOFBits(),
		delimBits: policy.DelimiterBits(),
		machine:   machine{state: stIdle, mode: ErrorActive},
	}
}

// Name returns the controller's name.
func (c *Controller) Name() string { return c.name }

// Instrument attaches a telemetry sink; protocol events carry the given
// station index. A nil sink turns emission off; an uninstrumented
// controller pays only a nil check per potential event.
func (c *Controller) Instrument(sink obs.Sink, station int) {
	c.ev = sink
	c.station = int16(station)
}

// emit sends one protocol event. The transmitter flag is explicit because
// several call sites clear c.transmitter before the emission point.
func (c *Controller) emit(kind obs.Kind, tx bool, cause uint8, aux uint32) {
	if c.ev == nil {
		return
	}
	e := obs.Event{
		Slot:    c.now,
		Kind:    kind,
		Station: c.station,
		Cause:   cause,
		Attempt: uint16(c.attempts),
		Aux:     aux,
	}
	if tx {
		e.Flags |= obs.FlagTransmitter
	}
	if c.mode == ErrorPassive {
		e.Flags |= obs.FlagPassive
	}
	c.ev.Emit(e)
}

// Policy returns the end-of-frame policy in use.
func (c *Controller) Policy() EOFPolicy { return c.policy }

// Enqueue queues a frame for transmission, ordered by priority; a frame
// being transmitted keeps its place at the head until its verdict.
func (c *Controller) Enqueue(f *frame.Frame) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("node %s: %w", c.name, err)
	}
	// The head is on the wire from the transmitter's SOF through its
	// end-of-frame episode.
	inFlight := c.transmitter && (c.state == stFrame || c.state == stEpisode)
	c.queue.push(f.Clone(), inFlight)
	return nil
}

// QueueLen returns the number of frames waiting for transmission
// (including one being retried).
func (c *Controller) QueueLen() int { return c.queue.len() }

// Crash makes the node fail silently: it stops driving the bus and never
// recovers (the transmitter failure of the paper's Fig. 1c).
func (c *Controller) Crash() {
	c.crashed = true
	c.setMode(SwitchedOff)
	c.disconnect()
}

// disconnect stops the controller driving the bus. An end-of-frame
// episode it held is dropped: a disconnected controller never resumes it.
func (c *Controller) disconnect() {
	c.state = stOff
	c.episode = Episode{}
}

// Crashed reports whether the node was crashed by fault injection.
func (c *Controller) Crashed() bool { return c.crashed }

// ForceBusOff drives the transmit error counter to the bus-off limit,
// disconnecting the node immediately (fault injection for
// crash-then-restart schedules). With AutoRecover the node rejoins after
// monitoring 128 occurrences of 11 consecutive recessive bits; without it
// the disconnection is permanent.
func (c *Controller) ForceBusOff() {
	c.tec = BusOffLimit
	c.refreshMode()
}

// Mode returns the fault confinement mode.
func (c *Controller) Mode() Mode { return c.mode }

// Counters returns the transmit and receive error counters.
func (c *Controller) Counters() (tec, rec int) { return c.tec, c.rec }

// SetErrorCounters overrides the error counters (test hook used to place a
// node in the error-passive state, as in the paper's Section 1 discussion).
func (c *Controller) SetErrorCounters(tec, rec int) {
	c.tec, c.rec = tec, rec
	c.refreshMode()
}

// Delivered returns the number of frames delivered to the upper layer.
func (c *Controller) Delivered() uint64 { return c.delivered }

// TxSuccesses returns the number of successfully transmitted frames.
func (c *Controller) TxSuccesses() uint64 { return c.txOK }

// ErrorCount returns how many errors of the given kind the node detected.
func (c *Controller) ErrorCount(kind ErrorKind) uint64 {
	if int(kind) >= len(c.errCount) {
		return 0
	}
	return c.errCount[kind]
}

// State is a controller's protocol state captured by Snapshot.
type State struct{ m machine }

// Snapshot captures the controller's protocol state: queue, counters,
// clock, receive pipeline, end-of-frame episode and signalling position.
func (c *Controller) Snapshot() State {
	s := State{m: c.machine}
	s.m.queue.frames = append([]*frame.Frame(nil), c.queue.frames...)
	return s
}

// Restore returns the controller to a state Snapshot captured from it.
// No hook or event fires; the transmit queue reuses its own storage, so a
// restore does not allocate once the queue has held the snapshot's frames.
// Queued frames are shared with the snapshot, which is safe because the
// controller never mutates a queued frame.
func (c *Controller) Restore(s State) {
	frames := c.queue.frames[:0]
	c.machine = s.m
	c.queue.frames = append(frames, s.m.queue.frames...)
}

// txEncoding returns the on-the-wire encoding of the queue head, the
// frame a transmitter in stFrame is sending (Enqueue files new frames
// behind it, and it leaves the queue only at its verdict). The encoding
// is derived, not part of the protocol state: when the head is not the
// frame last encoded, it is re-encoded in place, so a warm controller
// allocates nothing, and Restore needs no encoding. The pointer compare
// is exact because queued frames are private clones that are never
// mutated, and encoded keeps its frame alive, so no other frame can take
// its address.
func (c *Controller) txEncoding() *frame.Encoding {
	if head := c.queue.peek(); head != c.encoded {
		c.enc.Refill(head, c.eofBits)
		c.encoded = head
	}
	return &c.enc
}

// Idle reports whether the controller considers the bus idle and has
// nothing queued (useful as a quiescence condition for test drivers).
func (c *Controller) Idle() bool {
	return (c.state == stIdle || c.state == stOff) && c.queue.len() == 0
}

// Now returns the number of bit slots this controller has latched.
func (c *Controller) Now() uint64 { return c.now }

func (c *Controller) setMode(m Mode) {
	if c.mode == m {
		return
	}
	old := c.mode
	c.mode = m
	switch {
	case m == BusOff || m == SwitchedOff:
		c.emit(obs.KindBusOff, false, 0, uint32(m))
	case old == BusOff && m == ErrorActive:
		c.emit(obs.KindRecover, false, 0, 0)
	}
	if h := c.opts.Hooks.OnModeChange; h != nil {
		h(c.now, old, m)
	}
}

func (c *Controller) refreshMode() {
	switch {
	case c.mode == SwitchedOff:
		// terminal
	case c.tec >= BusOffLimit:
		c.setMode(BusOff)
		c.disconnect()
	case c.opts.WarningSwitchOff && (c.tec >= WarningLimit || c.rec >= WarningLimit):
		c.setMode(SwitchedOff)
		c.disconnect()
	case c.tec >= PassiveLimit || c.rec >= PassiveLimit:
		c.setMode(ErrorPassive)
	case c.mode == ErrorPassive:
		c.setMode(ErrorActive)
	}
}

func (c *Controller) bumpErrorCounter(transmitter bool) {
	if transmitter {
		c.tec += 8
	} else {
		c.rec++
	}
	c.refreshMode()
}

func (c *Controller) creditSuccess(transmitter bool) {
	if transmitter {
		if c.tec > 0 {
			c.tec--
		}
	} else {
		switch {
		case c.rec >= PassiveLimit:
			c.rec = PassiveLimit - 9 // re-enter error-active per spec
		case c.rec > 0:
			c.rec--
		}
	}
	c.refreshMode()
}

// Drive implements bus.Station.
func (c *Controller) Drive() bitstream.Level {
	switch c.state {
	case stStartTx:
		return bitstream.Dominant
	case stFrame:
		if c.transmitter {
			return c.txEncoding().Bits[c.txPos]
		}
		// Receiver: assert ACK if the frame validated so far.
		if c.asm.Done() && c.rxTail == 1 && c.asm.CRCOK() {
			return bitstream.Dominant
		}
		return bitstream.Recessive
	case stEpisode:
		return c.policy.Drive(&c.episode)
	case stErrorFlag, stOverloadFlag:
		return bitstream.Dominant
	default:
		return bitstream.Recessive
	}
}

// View implements bus.Station.
func (c *Controller) View() bus.ViewContext {
	v := bus.ViewContext{Attempts: c.attempts, Transmitter: c.transmitter}
	switch c.state {
	case stOff:
		v.Phase = bus.PhaseOff
	case stIdle:
		v.Phase = bus.PhaseIdle
	case stStartTx, stFrame:
		v.Phase = bus.PhaseFrame
		if c.state == stStartTx {
			v.Field, v.Index, v.Transmitter = frame.FieldSOF, 0, true
		} else if c.transmitter {
			ref := c.txEncoding().Refs[c.txPos]
			v.Field, v.Index = ref.Field, int(ref.Index)
		} else if !c.asm.Done() {
			v.Field, v.Index = c.asm.Field(), c.asm.FieldIndex()
		} else {
			switch c.rxTail {
			case 0:
				v.Field = frame.FieldCRCDelim
			case 1:
				v.Field = frame.FieldACKSlot
			default:
				v.Field = frame.FieldACKDelim
			}
		}
	case stEpisode:
		v.Phase, v.EOFRel = c.policy.Phase(&c.episode), c.episode.Pos
		if v.Phase == bus.PhaseEOF {
			v.Field, v.Index = frame.FieldEOF, v.EOFRel-1
		}
	case stErrorFlag:
		v.Phase = bus.PhaseErrorFlag
	case stPassiveFlag:
		v.Phase = bus.PhasePassiveErrorFlag
	case stOverloadFlag:
		v.Phase = bus.PhaseOverloadFlag
	case stDelim:
		if c.delimAfter == AfterOverloadDelim {
			v.Phase = bus.PhaseOverloadDelim
		} else {
			v.Phase = bus.PhaseErrorDelim
		}
	case stIntermission:
		v.Phase = bus.PhaseIntermission
		v.Field, v.Index = frame.FieldIntermission, c.intermCount
	case stSuspend:
		v.Phase = bus.PhaseSuspend
	}
	return v
}

// Latch implements bus.Station.
func (c *Controller) Latch(level bitstream.Level) {
	switch c.state {
	case stOff:
		c.latchOff(level)
	case stIdle:
		c.latchIdle(level)
	case stStartTx:
		c.beginFrame(true)
		c.latchFrame(level)
	case stFrame:
		c.latchFrame(level)
	case stEpisode:
		c.latchEpisode(level)
	case stErrorFlag, stPassiveFlag, stOverloadFlag:
		c.latchFlag(level)
	case stDelim:
		c.latchDelim(level)
	case stIntermission:
		c.latchIntermission(level)
	case stSuspend:
		c.latchSuspend(level)
	}
	c.now++
}

// latchOff handles the disconnected state: a bus-off node with AutoRecover
// counts 128 occurrences of 11 consecutive recessive bits and then rejoins
// the bus error-active. Crashed and switched-off nodes stay silent.
func (c *Controller) latchOff(level bitstream.Level) {
	if !c.opts.AutoRecover || c.crashed || c.mode != BusOff {
		return
	}
	if level != bitstream.Recessive {
		c.recovRun = 0
		return
	}
	c.recovRun++
	if c.recovRun < 11 {
		return
	}
	c.recovRun = 0
	c.recovSeq++
	if c.recovSeq < 128 {
		return
	}
	c.recovSeq = 0
	c.tec, c.rec = 0, 0
	c.setMode(ErrorActive)
	c.state = stIdle
}

func (c *Controller) latchIdle(level bitstream.Level) {
	if level == bitstream.Dominant {
		c.beginFrame(false)
		c.latchFrame(level)
		return
	}
	if c.queue.len() > 0 {
		c.state = stStartTx
	}
}

func (c *Controller) latchSuspend(level bitstream.Level) {
	if level == bitstream.Dominant {
		// Another node started a frame during our suspend period.
		c.beginFrame(false)
		c.latchFrame(level)
		return
	}
	c.suspendLeft--
	if c.suspendLeft <= 0 {
		c.state = stIdle
	}
}
