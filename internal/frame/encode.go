package frame

import (
	"fmt"

	"repro/internal/bitstream"
)

// Encoding is the full bit-level image of a frame as transmitted by an
// error-free transmitter, together with per-bit layout annotations.
type Encoding struct {
	// Bits are the on-the-wire levels from SOF through the last EOF bit,
	// with stuff bits inserted (stuffing covers SOF through the CRC
	// sequence).
	Bits bitstream.Sequence
	// Refs annotates every element of Bits with its field position.
	Refs []Ref
	// CRC is the 15-bit CRC computed over the destuffed SOF..data bits.
	CRC uint16
	// EOFBits is the EOF length used (7 for standard CAN, 2m for
	// MajorCAN_m).
	EOFBits int
	// StuffCount is the number of stuff bits inserted.
	StuffCount int
	// AckIndex is the offset within Bits of the ACK slot bit, cached at
	// encode time so per-window code does not rescan Refs. The stretch
	// Bits[pos:AckIndex] for any pos past SOF is the deterministic part
	// of the transmission: every bit up to (excluding) the ACK slot is
	// driven by the transmitter alone.
	AckIndex int
}

// Len returns the total number of bit times of the encoded frame
// (SOF..EOF inclusive, without interframe space).
func (e *Encoding) Len() int { return len(e.Bits) }

// IndexOf returns the offset within Bits of the idx-th bit (zero-based) of
// the given field, skipping stuff bits. It returns -1 if not present.
func (e *Encoding) IndexOf(f Field, idx int) int {
	for i, r := range e.Refs {
		if !r.Stuff && r.Field == f && int(r.Index) == idx {
			return i
		}
	}
	return -1
}

// FieldLen returns the number of non-stuff bits of field f in the encoding.
func (e *Encoding) FieldLen(f Field) int {
	n := 0
	for _, r := range e.Refs {
		if !r.Stuff && r.Field == f {
			n++
		}
	}
	return n
}

// encWriter streams a frame's bits into an Encoding in one pass: every
// stuffed-region bit goes through the bit stuffer (inserting stuff bits
// as they occur) and, before the CRC field, through the running CRC
// register. It writes by index into storage sized for the worst case, so
// refilling a warm Encoding allocates nothing.
type encWriter struct {
	enc *Encoding
	n   int // bits written so far
	st  bitstream.Stuffer
	crc bitstream.CRC15
}

// put writes one bit and its annotation.
func (w *encWriter) put(l bitstream.Level, ref Ref) {
	w.enc.Bits[w.n] = l
	w.enc.Refs[w.n] = ref
	w.n++
}

// stuffed writes one bit of the stuffed region (SOF through the CRC
// sequence), plus the stuff bit the stuffer may insert after it. Stuff
// bits carry the Field/Index of the preceding data bit.
func (w *encWriter) stuffed(field Field, idx int, l bitstream.Level) {
	w.put(l, Ref{Field: field, Index: int16(idx)})
	if sb, ok := w.st.Push(l); ok {
		w.put(sb, Ref{Field: field, Index: int16(idx), Stuff: true})
		w.enc.StuffCount++
	}
}

// body writes one CRC-covered bit (SOF..data).
func (w *encWriter) body(field Field, idx int, l bitstream.Level) {
	w.crc.Push(l)
	w.stuffed(field, idx, l)
}

// bodyUint writes the width low bits of v MSB-first as CRC-covered bits.
func (w *encWriter) bodyUint(field Field, v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.body(field, width-1-i, bitstream.FromBit(uint8(v>>uint(i)&1)))
	}
}

// tail writes one fixed-form bit (CRC delimiter onward): never stuffed,
// never CRC-covered.
func (w *encWriter) tail(field Field, idx int, l bitstream.Level) {
	w.put(l, Ref{Field: field, Index: int16(idx)})
}

// Encode produces the on-the-wire image of the frame with the given EOF
// length (use StandardEOFBits for standard CAN and MinorCAN, 2m for
// MajorCAN_m): it validates its arguments and fills a new Encoding with
// Refill.
func Encode(f *Frame, eofBits int) (*Encoding, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if eofBits < 1 {
		return nil, fmt.Errorf("frame: EOF length %d must be positive", eofBits)
	}
	enc := new(Encoding)
	enc.Refill(f, eofBits)
	return enc, nil
}

// Refill overwrites e with the on-the-wire image of f with eofBits EOF
// bits, as Encode returns it, reusing e's Bits and Refs storage: once e
// has held a frame at least as long, it allocates nothing. The frame
// must be valid (Frame.Validate) and eofBits positive. Slices taken from
// e's previous contents are overwritten.
func (e *Encoding) Refill(f *Frame, eofBits int) {
	dataBits := 0
	if !f.Remote {
		dataBits = 8 * len(f.Data)
	}
	// SOF + arbitration/control + data + CRC, worst-case stuffing (one
	// insertion per four bits after the first five; len/4 over-covers
	// it), then the fixed-form tail.
	regionLen := 1 + 11 + 1 + 1 + 1 + 4 + dataBits + bitstream.CRCWidth
	if f.EffectiveFormat() == Extended {
		regionLen += 1 + 18 + 1 // SRR, extended ID, r1
	}
	full := regionLen + regionLen/4 + 3 + eofBits
	if cap(e.Bits) < full || cap(e.Refs) < full {
		e.grow(full)
	}
	*e = Encoding{Bits: e.Bits[:full], Refs: e.Refs[:full], EOFBits: eofBits}
	w := encWriter{enc: e}

	rtr := bitstream.Dominant
	if f.Remote {
		rtr = bitstream.Recessive
	}
	w.body(FieldSOF, 0, bitstream.Dominant)
	switch f.EffectiveFormat() {
	case Extended:
		base := f.ID >> 18 & MaxStandardID
		ext := f.ID & (1<<18 - 1)
		w.bodyUint(FieldID, uint64(base), 11)
		w.body(FieldSRR, 0, bitstream.Recessive)
		w.body(FieldIDE, 0, bitstream.Recessive)
		w.bodyUint(FieldExtID, uint64(ext), 18)
		w.body(FieldRTR, 0, rtr)
		w.body(FieldR1, 0, bitstream.Dominant)
		w.body(FieldR0, 0, bitstream.Dominant)
	default:
		w.bodyUint(FieldID, uint64(f.ID), 11)
		w.body(FieldRTR, 0, rtr)
		w.body(FieldIDE, 0, bitstream.Dominant)
		w.body(FieldR0, 0, bitstream.Dominant)
	}
	w.bodyUint(FieldDLC, uint64(f.EffectiveDLC()), 4)
	if !f.Remote {
		// Data-bit indices run across byte boundaries.
		idx := 0
		for _, b := range f.Data {
			for i := 7; i >= 0; i-- {
				w.body(FieldData, idx, bitstream.FromBit(b>>uint(i)&1))
				idx++
			}
		}
	}
	// The CRC field is stuffed but not CRC-covered.
	e.CRC = w.crc.Sum()
	for i := bitstream.CRCWidth - 1; i >= 0; i-- {
		w.stuffed(FieldCRC, bitstream.CRCWidth-1-i, bitstream.FromBit(uint8(e.CRC>>uint(i)&1)))
	}

	// tail = CRC delimiter, ACK slot, ACK delimiter, EOF bits.
	e.AckIndex = w.n + 1
	w.tail(FieldCRCDelim, 0, bitstream.Recessive)
	w.tail(FieldACKSlot, 0, bitstream.Recessive)
	w.tail(FieldACKDelim, 0, bitstream.Recessive)
	for i := 0; i < eofBits; i++ {
		w.tail(FieldEOF, i, bitstream.Recessive)
	}
	e.Bits, e.Refs = e.Bits[:w.n], e.Refs[:w.n]
}

// grow replaces e's storage with room for n bits.
//
//lint:allow hotpath -- runs only when a frame longer than any e held before is encoded; a warm buffer refills in place
func (e *Encoding) grow(n int) {
	e.Bits = make(bitstream.Sequence, n)
	e.Refs = make([]Ref, n)
}

// Decode reconstructs a Frame from a destuffed bit sequence spanning SOF
// through the CRC sequence. It verifies the CRC and returns an error on any
// format violation.
func Decode(destuffed bitstream.Sequence) (*Frame, error) {
	var a Assembler
	for i, l := range destuffed {
		st, err := a.Push(l)
		if err != nil {
			return nil, fmt.Errorf("frame: decode bit %d: %w", i, err)
		}
		if st == AssemblyDone && i != len(destuffed)-1 {
			return nil, fmt.Errorf("frame: %d trailing bits after CRC", len(destuffed)-1-i)
		}
	}
	if !a.Done() {
		return nil, fmt.Errorf("frame: truncated sequence (%d bits, in %s)", len(destuffed), a.Field())
	}
	if !a.CRCOK() {
		return nil, fmt.Errorf("frame: CRC mismatch: received %#x, computed %#x", a.ReceivedCRC(), a.ComputedCRC())
	}
	return a.Frame(), nil
}
