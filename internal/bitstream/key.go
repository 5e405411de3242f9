package bitstream

import "encoding/binary"

// State keys are canonical byte encodings of a simulator's protocol
// state, used to memoize simulations on the state they start from. Every
// field is written in declaration order with a prefix-free code
// (varints, one byte per bool, lengths before sequences), so two states
// have equal keys exactly when their fields are equal. A field added to
// a keyed type must be added to its AppendKey.

// AppendKeyBool appends a bool to a state key.
func AppendKeyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendKeyInt appends a signed integer to a state key.
func AppendKeyInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendKeyUint appends an unsigned integer to a state key.
func AppendKeyUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendKey appends the destuffer's registers to a state key.
func (d *Destuffer) AppendKey(b []byte) []byte {
	b = append(b, byte(d.last))
	b = AppendKeyInt(b, int64(d.count))
	return AppendKeyBool(b, d.expectInv)
}

// AppendKey appends the CRC register to a state key.
func (c *CRC15) AppendKey(b []byte) []byte { return AppendKeyUint(b, uint64(c.reg)) }
