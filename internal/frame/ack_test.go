package frame

import (
	"math/rand"
	"testing"

	"repro/internal/bitstream"
)

// replayToAck feeds enc.Bits[:enc.AckIndex] through a Destuffer and an
// Assembler one bit at a time, as a receiving controller does: the
// SOF..CRC bits through both, the stuff bit that may follow the CRC
// sequence through the destuffer, and the CRC delimiter through neither.
func replayToAck(t *testing.T, enc *Encoding) (bitstream.Destuffer, Assembler) {
	t.Helper()
	var ds bitstream.Destuffer
	var a Assembler
	for i, l := range enc.Bits[:enc.AckIndex-1] {
		kind, err := ds.Push(l)
		if err != nil {
			t.Fatalf("bit %d: own encoding fails to destuff: %v", i, err)
		}
		if kind == bitstream.StuffBit {
			continue
		}
		if a.Done() {
			t.Fatalf("bit %d: data bit after the CRC sequence", i)
		}
		if _, err := a.Push(l); err != nil {
			t.Fatalf("bit %d: own encoding fails to assemble: %v", i, err)
		}
	}
	if !a.Done() {
		t.Fatal("the CRC sequence is incomplete at the CRC delimiter")
	}
	return ds, a
}

// checkReceivedAtAck requires ReceivedAtAck to equal the per-bit replay
// of f's encoding, field for field.
func checkReceivedAtAck(t *testing.T, f *Frame) {
	t.Helper()
	enc, err := Encode(f, StandardEOFBits)
	if err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	wantDS, wantAsm := replayToAck(t, enc)
	gotDS, gotAsm := ReceivedAtAck(f, enc)
	if gotDS != wantDS {
		t.Errorf("%v: destuffer %+v, per-bit replay %+v", f, gotDS, wantDS)
	}
	if gotAsm != wantAsm {
		t.Errorf("%v: assembler %+v, per-bit replay %+v", f, gotAsm, wantAsm)
	}
}

// TestReceivedAtAckMatchesReplay pins the constant-time receive pipeline
// against the per-bit one over both formats, data and remote frames,
// every DLC and random identifiers and payloads.
func TestReceivedAtAckMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, format := range []Format{Standard, Extended} {
		maxID := uint32(MaxStandardID)
		if format == Extended {
			maxID = MaxExtendedID
		}
		for _, remote := range []bool{false, true} {
			for dlc := uint8(0); dlc <= 15; dlc++ {
				for trial := 0; trial < 24; trial++ {
					f := &Frame{ID: rng.Uint32() % (maxID + 1), Format: format, Remote: remote, DLC: dlc}
					if trial == 0 {
						f.ID = 0 // the longest dominant runs, the most stuff bits
					}
					if !remote {
						f.Data = make([]byte, min(int(dlc), MaxDataLen))
						if trial > 0 {
							rng.Read(f.Data)
						}
					}
					checkReceivedAtAck(t, f)
				}
			}
		}
	}
}

// FuzzReceivedAtAck checks ReceivedAtAck against the per-bit replay for
// arbitrary frame parameters, seeded like FuzzEncodeDecode. A data frame
// longer than eight bytes keeps eight and spends the excess on a DLC of
// 9..15; a remote frame's DLC is its data length modulo 16.
func FuzzReceivedAtAck(f *testing.F) {
	f.Add(uint32(0x123), false, false, []byte{1, 2, 3})
	f.Add(uint32(0x1FFFFFFF), true, false, []byte{})
	f.Add(uint32(0x42), false, true, []byte{})
	f.Add(uint32(0), false, false, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, id uint32, extended, remote bool, data []byte) {
		fr := &Frame{ID: id, Remote: remote, Data: data}
		if extended {
			fr.Format = Extended
		}
		switch {
		case remote:
			fr.Data, fr.DLC = nil, uint8(len(data)%16)
		case len(data) > MaxDataLen:
			fr.Data, fr.DLC = data[:MaxDataLen], uint8(MaxDataLen+(len(data)-MaxDataLen)%8)
		}
		if fr.Validate() != nil {
			return
		}
		checkReceivedAtAck(t, fr)
	})
}
