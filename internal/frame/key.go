package frame

import "repro/internal/bitstream"

// State keys: see bitstream.AppendKeyBool for the encoding rules.

// AppendKey appends the assembler's parse state to a state key.
func (a *Assembler) AppendKey(b []byte) []byte {
	b = append(b, byte(a.stage))
	b = bitstream.AppendKeyInt(b, int64(a.count))
	b = bitstream.AppendKeyUint(b, uint64(a.id))
	b = bitstream.AppendKeyUint(b, uint64(a.extID))
	b = bitstream.AppendKeyBool(b, a.remote)
	b = append(b, byte(a.srr))
	b = bitstream.AppendKeyBool(b, a.extended)
	b = append(b, a.dlc)
	b = bitstream.AppendKeyInt(b, int64(a.dataLen))
	b = append(b, a.data[:]...)
	b = bitstream.AppendKeyInt(b, int64(a.nData))
	b = append(b, a.byteAcc)
	b = bitstream.AppendKeyUint(b, uint64(a.crcRecv))
	return a.crc.AppendKey(b)
}

// AppendKey appends the frame's content to a state key.
func (f *Frame) AppendKey(b []byte) []byte {
	b = bitstream.AppendKeyUint(b, uint64(f.ID))
	b = append(b, byte(f.Format))
	b = bitstream.AppendKeyBool(b, f.Remote)
	b = bitstream.AppendKeyUint(b, uint64(len(f.Data)))
	b = append(b, f.Data...)
	return append(b, f.DLC)
}
