package frame

import (
	"errors"
	"fmt"

	"repro/internal/bitstream"
)

// AssemblyState reports the progress of an Assembler.
type AssemblyState uint8

const (
	// AssemblyInProgress means more bits are expected.
	AssemblyInProgress AssemblyState = iota + 1
	// AssemblyDone means the CRC sequence has been fully received.
	AssemblyDone
)

type assemblyStage uint8

const (
	stSOF assemblyStage = iota + 1
	stID
	stRTRorSRR
	stIDE
	stExtID
	stExtRTR
	stR1
	stR0
	stDLC
	stData
	stCRC
	stDone
)

// Assembler incrementally parses the destuffed bits of a CAN frame from
// SOF through the end of the CRC sequence, computing the CRC on the fly.
// The zero value is ready to use.
//
// The caller (the receive path of a CAN controller) is responsible for
// destuffing: only data bits, not stuff bits, are pushed.
type Assembler struct {
	stage    assemblyStage
	count    int
	id       uint32
	extID    uint32
	remote   bool
	srr      bitstream.Level
	extended bool
	dlc      uint8
	dataLen  int
	data     [MaxDataLen]byte // received data bytes; nData are valid
	nData    int
	byteAcc  uint8
	crcRecv  uint16
	crc      bitstream.CRC15
}

// Reset returns the assembler to its start-of-frame state.
func (a *Assembler) Reset() { *a = Assembler{} }

func (a *Assembler) stageOrInit() assemblyStage {
	if a.stage == 0 {
		return stSOF
	}
	return a.stage
}

// ErrFormat reports a fixed-form field violation inside the frame body.
type ErrFormat struct {
	Field Field
	Got   bitstream.Level
}

func (e *ErrFormat) Error() string {
	return fmt.Sprintf("form error: %s must not be %s", e.Field, e.Got)
}

// errFormatSOF is the only form error Push constructs itself (a
// recessive start-of-frame bit); preallocated so the per-bit receive
// path never allocates, even while rejecting.
var errFormatSOF = &ErrFormat{Field: FieldSOF, Got: bitstream.Recessive}

// errPushAfterDone is static for the same reason.
var errPushAfterDone = errors.New("frame: bit pushed after CRC complete")

// Push feeds one destuffed bit into the assembler.
func (a *Assembler) Push(l bitstream.Level) (AssemblyState, error) {
	st := a.stageOrInit()
	if st != stCRC && st != stDone {
		a.crc.Push(l)
	}
	switch st {
	case stSOF:
		if l != bitstream.Dominant {
			return 0, errFormatSOF
		}
		a.stage = stID
	case stID:
		a.id = a.id<<1 | uint32(l.Bit())
		a.count++
		if a.count == 11 {
			a.stage, a.count = stRTRorSRR, 0
		}
	case stRTRorSRR:
		// Whether this bit is RTR (standard) or SRR (extended) is decided
		// by the IDE bit that follows.
		a.srr = l
		a.stage = stIDE
	case stIDE:
		if l == bitstream.Recessive {
			a.extended = true
			a.stage = stExtID
		} else {
			a.extended = false
			a.remote = a.srr == bitstream.Recessive
			a.stage = stR0
		}
	case stExtID:
		a.extID = a.extID<<1 | uint32(l.Bit())
		a.count++
		if a.count == 18 {
			a.stage, a.count = stExtRTR, 0
		}
	case stExtRTR:
		a.remote = l == bitstream.Recessive
		a.stage = stR1
	case stR1:
		a.stage = stR0
	case stR0:
		a.stage = stDLC
	case stDLC:
		a.dlc = a.dlc<<1 | l.Bit()
		a.count++
		if a.count == 4 {
			a.count = 0
			a.dataLen = int(a.dlc)
			if a.dataLen > MaxDataLen {
				a.dataLen = MaxDataLen
			}
			if a.remote || a.dataLen == 0 {
				a.stage = stCRC
			} else {
				a.stage = stData
			}
		}
	case stData:
		a.byteAcc = a.byteAcc<<1 | l.Bit()
		a.count++
		if a.count%8 == 0 {
			a.data[a.nData] = a.byteAcc
			a.nData++
			a.byteAcc = 0
			if a.nData == a.dataLen {
				a.stage, a.count = stCRC, 0
			}
		}
	case stCRC:
		a.crcRecv = a.crcRecv<<1 | uint16(l.Bit())
		a.count++
		if a.count == bitstream.CRCWidth {
			a.stage = stDone
			return AssemblyDone, nil
		}
	case stDone:
		return 0, errPushAfterDone
	}
	return AssemblyInProgress, nil
}

// ReceivedAtAck returns the receive pipeline of a station that sampled
// enc.Bits[:enc.AckIndex] undisturbed, where enc is f's encoding: the
// destuffer after the stuffed region (SOF through the CRC sequence and
// the stuff bit that may follow it) and the assembler after the frame's
// SOF..CRC bits. It is what pushing those bits one by one produces, built
// from the frame's fields and enc.CRC instead, in constant time.
func ReceivedAtAck(f *Frame, enc *Encoding) (bitstream.Destuffer, Assembler) {
	a := Assembler{
		stage:   stDone,
		count:   bitstream.CRCWidth,
		remote:  f.Remote,
		dlc:     f.EffectiveDLC(),
		crcRecv: enc.CRC,
		crc:     bitstream.CRC15Of(enc.CRC),
	}
	a.dataLen = min(int(a.dlc), MaxDataLen)
	if f.EffectiveFormat() == Extended {
		a.extended = true
		a.id = f.ID >> 18 & MaxStandardID
		a.extID = f.ID & (1<<18 - 1)
		a.srr = bitstream.Recessive
	} else {
		a.id = f.ID
		a.srr = bitstream.Dominant
		if f.Remote {
			a.srr = bitstream.Recessive
		}
	}
	if !f.Remote {
		a.nData = copy(a.data[:], f.Data)
	}
	// The CRC delimiter at AckIndex-1 ends the stuffed region.
	return bitstream.DestufferAfter(enc.Bits[:enc.AckIndex-1]), a
}

// Done reports whether the full SOF..CRC region has been received.
func (a *Assembler) Done() bool { return a.stage == stDone }

// CRCOK reports whether the received CRC matches the computed one. Only
// meaningful once Done.
func (a *Assembler) CRCOK() bool { return a.crcRecv == a.crc.Sum() }

// ReceivedCRC returns the CRC sequence received on the bus.
func (a *Assembler) ReceivedCRC() uint16 { return a.crcRecv }

// ComputedCRC returns the CRC computed over the received SOF..data bits.
func (a *Assembler) ComputedCRC() uint16 { return a.crc.Sum() }

// Extended reports whether the frame uses the extended format. Only
// meaningful after the IDE bit has been received.
func (a *Assembler) Extended() bool { return a.extended }

// Frame returns the parsed frame. Only meaningful once Done.
func (a *Assembler) Frame() *Frame {
	f := &Frame{Remote: a.remote, DLC: a.dlc, Data: append([]byte(nil), a.data[:a.nData]...)}
	if a.extended {
		f.Format = Extended
		f.ID = a.id<<18 | a.extID
	} else {
		f.Format = Standard
		f.ID = a.id
	}
	return f
}

// Field returns the frame field the next expected bit belongs to.
func (a *Assembler) Field() Field {
	switch a.stageOrInit() {
	case stSOF:
		return FieldSOF
	case stID:
		return FieldID
	case stRTRorSRR:
		// Not yet disambiguated; report RTR (the standard-format reading).
		return FieldRTR
	case stIDE:
		return FieldIDE
	case stExtID:
		return FieldExtID
	case stExtRTR:
		return FieldRTR
	case stR1:
		return FieldR1
	case stR0:
		return FieldR0
	case stDLC:
		return FieldDLC
	case stData:
		return FieldData
	case stCRC:
		return FieldCRC
	default:
		return FieldCRCDelim
	}
}

// FieldIndex returns the zero-based index within the current field of the
// next expected bit.
func (a *Assembler) FieldIndex() int {
	switch a.stageOrInit() {
	case stID, stExtID, stDLC, stCRC:
		return a.count
	case stData:
		return a.count
	default:
		return 0
	}
}

// InArbitration reports whether the next expected bit belongs to the
// arbitration field (identifier and RTR bits, plus SRR/IDE in the extended
// format), during which a transmitter sending recessive and sampling
// dominant loses arbitration rather than detecting a bit error.
func (a *Assembler) InArbitration() bool {
	switch a.stageOrInit() {
	case stID, stRTRorSRR, stIDE, stExtID, stExtRTR:
		return true
	default:
		return false
	}
}
