package bitstream

// CRCPoly is the generator polynomial of the CAN frame check sequence:
//
//	x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1
//
// represented with the x^15 term implicit (0x4599 = 100 0101 1001 1001b).
const CRCPoly = 0x4599

// CRCWidth is the width in bits of the CAN CRC sequence.
const CRCWidth = 15

const crcMask = 1<<CRCWidth - 1

// CRC15 is the incremental CAN CRC register. The zero value is the correct
// start-of-frame state (register cleared).
type CRC15 struct {
	reg uint16
}

// CRC15Of returns the register that pushing a sequence whose CRC is sum
// leaves behind: the register is the running CRC, so continuing from it
// is the same as continuing from that sequence.
func CRC15Of(sum uint16) CRC15 { return CRC15{reg: sum & crcMask} }

// Reset clears the CRC register (start-of-frame state).
func (c *CRC15) Reset() { c.reg = 0 }

// Push feeds one destuffed bit (as a bus level) into the CRC register,
// following the algorithm in the CAN 2.0 specification.
func (c *CRC15) Push(l Level) {
	crcnxt := uint16(l.Bit()) ^ (c.reg >> (CRCWidth - 1) & 1)
	c.reg = (c.reg << 1) & crcMask
	if crcnxt != 0 {
		c.reg ^= CRCPoly
	}
}

// Sum returns the current value of the CRC register.
func (c *CRC15) Sum() uint16 { return c.reg & crcMask }

// ComputeCRC returns the CAN CRC-15 of a destuffed bit sequence (start of
// frame through the end of the data field).
func ComputeCRC(seq Sequence) uint16 {
	var c CRC15
	for _, l := range seq {
		c.Push(l)
	}
	return c.Sum()
}

// CRCSequence returns the 15-bit CRC of seq as a bus-level sequence,
// most-significant bit first, ready to be appended to the frame.
func CRCSequence(seq Sequence) Sequence {
	return Sequence{}.AppendUint(uint64(ComputeCRC(seq)), CRCWidth)
}
