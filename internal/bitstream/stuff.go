package bitstream

import "fmt"

// MaxEqualBits is the number of consecutive equal-valued bits after which
// the CAN transfer layer inserts a stuff bit of the complementary value.
// Six consecutive equal bits in a stuffed field therefore constitute a
// stuff error.
const MaxEqualBits = 5

// Stuff applies CAN bit stuffing to the sequence: whenever five consecutive
// bits of equal value have been transmitted, a bit of the complementary
// value is inserted. Stuffing in CAN covers the bits from start of frame up
// to and including the CRC sequence.
func Stuff(in Sequence) Sequence {
	out := make(Sequence, 0, len(in)+len(in)/MaxEqualBits+1)
	var st Stuffer
	for _, l := range in {
		out = append(out, l)
		if stuffBit, ok := st.Push(l); ok {
			out = append(out, stuffBit)
		}
	}
	return out
}

// Destuff removes CAN stuff bits from the sequence. It returns an error if
// the sequence contains six consecutive equal bits (a stuff error) or if a
// stuff bit does not have the complementary value of the preceding run.
func Destuff(in Sequence) (Sequence, error) {
	out := make(Sequence, 0, len(in))
	var ds Destuffer
	for i, l := range in {
		kind, err := ds.Push(l)
		if err != nil {
			return nil, fmt.Errorf("bitstream: destuff at bit %d: %w", i, err)
		}
		if kind == DataBit {
			out = append(out, l)
		}
	}
	return out, nil
}

// Stuffer is an incremental bit-stuffing state machine for the transmit
// path. The zero value is ready to use (as at start of frame).
type Stuffer struct {
	last  Level
	count int
}

// Reset returns the stuffer to its start-of-frame state.
func (s *Stuffer) Reset() {
	s.last = 0
	s.count = 0
}

// Push records that level l has been transmitted as a data bit. If a stuff
// bit of the complementary value must be transmitted next, Push returns it
// with ok = true; the caller must transmit it and need not (and must not)
// report it back via Push — Push already accounts for it.
func (s *Stuffer) Push(l Level) (stuff Level, ok bool) {
	if l == s.last {
		s.count++
	} else {
		s.last = l
		s.count = 1
	}
	if s.count == MaxEqualBits {
		inv := l.Invert()
		// The stuff bit itself starts a new run of length one.
		s.last = inv
		s.count = 1
		return inv, true
	}
	return 0, false
}

// BitKind classifies a received bit in a stuffed field.
type BitKind uint8

const (
	// DataBit is an ordinary payload bit visible to the upper layers.
	DataBit BitKind = iota + 1
	// StuffBit is an inserted stuff bit that must be discarded.
	StuffBit
)

// ErrStuff is returned by Destuffer.Push when six consecutive bits of equal
// value are observed in a stuffed field.
type ErrStuff struct {
	Level Level // the repeated level
}

func (e *ErrStuff) Error() string {
	return fmt.Sprintf("stuff error: six consecutive %s bits", e.Level)
}

// The two possible stuff errors are preallocated so the per-bit receive
// path stays allocation-free even while a disturbed frame is rejected.
var (
	errStuffDominant  = &ErrStuff{Level: Dominant}
	errStuffRecessive = &ErrStuff{Level: Recessive}
)

func stuffError(l Level) *ErrStuff {
	if l == Dominant {
		return errStuffDominant
	}
	return errStuffRecessive
}

// Destuffer is an incremental destuffing state machine for the receive
// path. The zero value is ready to use (as at start of frame).
type Destuffer struct {
	last      Level
	count     int
	expectInv bool
}

// Reset returns the destuffer to its start-of-frame state.
func (d *Destuffer) Reset() {
	*d = Destuffer{}
}

// Push processes one received bit and classifies it as a data bit or a
// stuff bit. A stuff error (six equal consecutive bits) is reported as an
// *ErrStuff error.
func (d *Destuffer) Push(l Level) (BitKind, error) {
	if d.expectInv {
		d.expectInv = false
		if l == d.last {
			// Six equal bits in a row: the stuff bit is missing.
			d.count++
			return 0, stuffError(l)
		}
		// Valid stuff bit: starts a new run of one.
		d.last = l
		d.count = 1
		return StuffBit, nil
	}
	if l == d.last {
		d.count++
	} else {
		d.last = l
		d.count = 1
	}
	if d.count == MaxEqualBits {
		d.expectInv = true
	}
	return DataBit, nil
}

// DestufferAfter returns the destuffer state after Push has consumed the
// well-formed stuffed sequence seq (no run of more than five equal bits,
// every stuff bit in place) from its start-of-frame state. Only the
// trailing run matters: a stuff bit is the complement of the bit before
// it, so the run of equal levels ending seq is exactly the destuffer's
// count, and a run of five means the next bit must be a stuff bit. The
// cost is the run's length (at most five), not len(seq).
func DestufferAfter(seq Sequence) Destuffer {
	if len(seq) == 0 {
		return Destuffer{}
	}
	last := seq[len(seq)-1]
	run := 1
	for i := len(seq) - 2; i >= 0 && seq[i] == last && run < MaxEqualBits; i-- {
		run++
	}
	return Destuffer{last: last, count: run, expectInv: run == MaxEqualBits}
}

// NextIsStuff reports whether the next received bit is expected to be a
// stuff bit (i.e. five equal bits have just been seen).
func (d *Destuffer) NextIsStuff() bool {
	return d.expectInv
}

// StuffedLength returns the number of bits the sequence will occupy on the
// bus after stuffing, without materialising the stuffed sequence.
func StuffedLength(in Sequence) int {
	n := len(in)
	var st Stuffer
	for _, l := range in {
		if _, ok := st.Push(l); ok {
			n++
		}
	}
	return n
}
