// Package obs is the protocol telemetry layer: a typed vocabulary of
// protocol events emitted by the bus and the controllers, a lock-free
// single-producer ring buffer that decouples emission from consumption,
// pluggable sinks (in-memory, JSONL, fan-out), and an allocation-free
// metrics registry that forks per sweep worker and merges on completion.
//
// The package is a leaf: it imports only the standard library, so every
// layer of the simulator (bus, node, sim, chaos, the CLIs and the public
// majorcan API) can depend on it without cycles. Event producers hold a
// Sink and guard every emission with a nil check; an uninstrumented run
// pays only that check.
package obs

import "fmt"

// Kind names one protocol event class. The vocabulary follows the
// MajorCAN paper's protocol narrative: frames start, lose arbitration,
// get flagged (primary by the detecting node, secondary from the
// end-of-frame region), are corrected by MajorCAN's EOF majority vote,
// retransmitted, accepted — and, at the harness level, end as
// inconsistent message omissions.
type Kind uint8

const (
	// KindFrameStart is a start-of-frame bit on the wire. Emitted by the
	// bus: Station is the lowest-indexed transmitting contender, Aux the
	// number of simultaneous contenders, Attempt that station's
	// transmission attempt count.
	KindFrameStart Kind = iota + 1
	// KindArbitrationLoss is a transmitter losing arbitration and
	// continuing as a receiver. Aux is the bit index within the frame
	// encoding at which it lost.
	KindArbitrationLoss
	// KindStuffError is a stuff-rule violation (six consecutive equal
	// bits) detected by a station.
	KindStuffError
	// KindErrorFlagPrimary is an error flag triggered by an error the
	// station detected in the frame body itself (bit, stuff, CRC, form or
	// ACK error). Cause carries the error kind code.
	KindErrorFlagPrimary
	// KindErrorFlagSecondary is error signalling decided in the
	// end-of-frame region (a corrupted EOF bit or another node's flag
	// reaching this station's EOF window). Cause carries the error kind
	// code. The slot is the end of the station's EOF episode, where the
	// protocol variant resolves its verdict.
	KindErrorFlagSecondary
	// KindEOFVoteCorrected is MajorCAN's acceptance sampling overturning
	// a signalled error: the station flagged an error in the first EOF
	// sub-field and the majority vote over the sampling window still
	// accepted the frame. Aux is the number of dominant samples.
	KindEOFVoteCorrected
	// KindRetransmit is a transmitter scheduling an automatic
	// retransmission after a rejected frame. Attempt counts the attempts
	// made so far; Cause carries the error kind that caused the reject.
	KindRetransmit
	// KindFrameAccepted is a frame accepted at a station: a receiver
	// delivering it to the upper layer, or (with FlagTransmitter set) the
	// transmitter completing its transmission.
	KindFrameAccepted
	// KindIMO is an inconsistent message omission classified by the
	// harness: some correct receiver delivered the frame and another
	// correct receiver never did. Station is -1 (bus-level), Slot is the
	// frame's broadcast slot, Aux its sequence number.
	KindIMO
	// KindBusOff is a station leaving the bus: Aux carries the mode code
	// (3 = bus-off, 4 = switched-off/crashed).
	KindBusOff
	// KindRecover is a bus-off station rejoining error-active after
	// monitoring 128 occurrences of 11 consecutive recessive bits.
	KindRecover
	// KindStorageDegraded is a service-level durability fault: a durable
	// store (journal, result spool or checkpoint directory) failed and the
	// layer fell back to memory-only operation instead of crashing.
	// Station is -1, Slot 0, Aux carries the store code (see Store*).
	KindStorageDegraded
	// KindJournalRecovered is a service-level recovery marker: startup
	// replayed unfinished jobs from the write-ahead journal. Station is
	// -1, Slot 0, Aux the number of jobs re-admitted.
	KindJournalRecovered
	// KindCheckpointSaved is a harness-level checkpoint boundary: a
	// long-running job persisted its partial progress (a seed-order sweep
	// prefix or a campaign trial position), so a crash from here loses at
	// most one batch. Station is -1, Aux the units (points or trials)
	// completed so far.
	KindCheckpointSaved
	// KindCheckpointResumed marks a recovered job picking up from a
	// checkpoint instead of restarting. Station is -1, Aux the units
	// already complete when the run resumed.
	KindCheckpointResumed
	// KindEOFVote is the completion of a station's end-of-frame episode —
	// the region where each protocol variant resolves its verdict
	// (standard CAN's EOF field, MajorCAN's majority-vote rounds). Slot is
	// the episode's final bit, Aux its length in slots, Cause the error
	// kind that drove the episode (0 for a clean frame), and FlagRejected
	// marks a reject verdict. Trace exporters turn these into per-station
	// vote-round spans.
	KindEOFVote
	// KindRingOverflow is a service-level telemetry fault: a job's event
	// ring dropped its first event because no consumer drained it fast
	// enough, so the live stream is incomplete from here on. Emitted once
	// per ring; Station is -1, Aux carries the ring capacity.
	KindRingOverflow
)

// Store codes carried in KindStorageDegraded's Aux field.
const (
	// StoreJournal is the write-ahead job journal.
	StoreJournal uint32 = 1
	// StoreSpool is the content-addressed result spool.
	StoreSpool uint32 = 2
	// StoreCheckpoint is the job checkpoint directory.
	StoreCheckpoint uint32 = 3
)

func (k Kind) String() string {
	switch k {
	case KindFrameStart:
		return "frame-start"
	case KindArbitrationLoss:
		return "arbitration-loss"
	case KindStuffError:
		return "stuff-error"
	case KindErrorFlagPrimary:
		return "error-flag-primary"
	case KindErrorFlagSecondary:
		return "error-flag-secondary"
	case KindEOFVoteCorrected:
		return "eof-vote-corrected"
	case KindRetransmit:
		return "retransmit"
	case KindFrameAccepted:
		return "frame-accepted"
	case KindIMO:
		return "imo"
	case KindBusOff:
		return "bus-off"
	case KindRecover:
		return "recover"
	case KindStorageDegraded:
		return "storage-degraded"
	case KindJournalRecovered:
		return "journal-recovered"
	case KindCheckpointSaved:
		return "checkpoint-saved"
	case KindCheckpointResumed:
		return "checkpoint-resumed"
	case KindEOFVote:
		return "eof-vote"
	case KindRingOverflow:
		return "ring-overflow"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrorFlag reports whether the kind is one of the two error-flag
// variants.
func (k Kind) ErrorFlag() bool {
	return k == KindErrorFlagPrimary || k == KindErrorFlagSecondary
}

// Event flag bits.
const (
	// FlagTransmitter marks the station as the transmitter of the current
	// frame at emission time.
	FlagTransmitter uint8 = 1 << iota
	// FlagPassive marks the station as error-passive at emission time
	// (its flags are recessive and cannot influence the bus).
	FlagPassive
	// FlagRejected marks a KindEOFVote episode that ended in a reject
	// verdict (the station discarded the frame; a transmitter will
	// retransmit it).
	FlagRejected
)

// Event is one protocol event. The struct is fixed-size and pointer-free
// so rings and sinks never allocate per event.
type Event struct {
	// Slot is the bit slot the event belongs to.
	Slot uint64
	// Kind classifies the event.
	Kind Kind
	// Station is the emitting station index, or -1 for bus- and
	// harness-level events.
	Station int16
	// Cause is the error kind code for error events (see CauseName).
	Cause uint8
	// Flags carries FlagTransmitter and FlagPassive.
	Flags uint8
	// Attempt is the station's transmission-attempt count at emission.
	Attempt uint16
	// Aux is kind-specific: contenders (FrameStart), bit index
	// (ArbitrationLoss), dominant votes (EOFVoteCorrected), sequence
	// number (IMO), mode code (BusOff).
	Aux uint32
}

// Transmitter reports whether the station was the frame's transmitter.
func (e Event) Transmitter() bool { return e.Flags&FlagTransmitter != 0 }

// Passive reports whether the station was error-passive.
func (e Event) Passive() bool { return e.Flags&FlagPassive != 0 }

// Rejected reports whether a KindEOFVote episode ended in a reject.
func (e Event) Rejected() bool { return e.Flags&FlagRejected != 0 }

func (e Event) String() string {
	s := fmt.Sprintf("[%d] n%d %s", e.Slot, e.Station, e.Kind)
	if name := CauseName(e.Cause); name != "" {
		s += " cause=" + name
	}
	if e.Transmitter() {
		s += " tx"
	}
	return s
}

// causeNames mirrors node.ErrorKind's codes and String values: bit=1,
// stuff=2, crc=3, form=4, ack=5, overload=6. The obs package cannot
// import node (node imports obs), so the mapping is duplicated here and
// pinned by a cross-package test in internal/node.
var causeNames = [...]string{1: "bit", 2: "stuff", 3: "crc", 4: "form", 5: "ack", 6: "overload"}

// CauseName renders an error kind code, or "" for 0/unknown codes.
func CauseName(code uint8) string {
	if int(code) < len(causeNames) {
		return causeNames[code]
	}
	return ""
}

// Sink consumes protocol events. Producers (bus.Network, node.Controller)
// call Emit once per event from the simulation goroutine; sink
// implementations used across goroutines (Memory, JSONLWriter, Metrics)
// are internally synchronised.
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }
