package node

import "repro/internal/frame"

// txQueue is the controller's transmit buffer: frames ordered by CAN
// arbitration priority (lower identifier first), FIFO among equal
// identifiers, mirroring the behaviour of multi-buffer CAN controllers.
type txQueue struct {
	frames []*frame.Frame
}

// push inserts a frame by priority (stable among equal identifiers).
// With inFlight set the head is the frame on the wire, so the new frame
// goes behind it whatever its priority: the head is the frame an
// accept or a single-shot reject pops and reports.
func (q *txQueue) push(f *frame.Frame, inFlight bool) {
	pos := len(q.frames)
	first := 0
	if inFlight {
		first = 1
	}
	for i := first; i < len(q.frames); i++ {
		if priorityLess(f, q.frames[i]) {
			pos = i
			break
		}
	}
	q.frames = append(q.frames, nil)
	copy(q.frames[pos+1:], q.frames[pos:])
	q.frames[pos] = f
}

// peek returns the highest-priority pending frame without removing it.
func (q *txQueue) peek() *frame.Frame {
	if len(q.frames) == 0 {
		return nil
	}
	return q.frames[0]
}

// pop removes and returns the highest-priority pending frame.
func (q *txQueue) pop() *frame.Frame {
	f := q.peek()
	if f != nil {
		copy(q.frames, q.frames[1:])
		q.frames[len(q.frames)-1] = nil
		q.frames = q.frames[:len(q.frames)-1]
	}
	return f
}

func (q *txQueue) len() int { return len(q.frames) }

// priorityLess reports whether a wins arbitration against b. On the bus,
// arbitration compares the identifier bits most-significant first with
// dominant (0) winning; a standard frame wins over an extended frame with
// the same base identifier (its RTR/IDE bits are dominant earlier), and a
// data frame wins over a remote frame with the same identifier.
func priorityLess(a, b *frame.Frame) bool {
	ab, bb := arbKey(a), arbKey(b)
	return ab < bb
}

// arbKey linearises a frame's arbitration field into an integer such that
// numerically smaller keys win arbitration. The bit order mirrors the wire:
// base identifier, then the bit transmitted in the RTR/SRR slot, then the
// IDE slot, then the 18 extension bits and the extended RTR.
func arbKey(f *frame.Frame) uint64 {
	rtr := uint64(0)
	if f.Remote {
		rtr = 1
	}
	if f.EffectiveFormat() == frame.Extended {
		base := uint64(f.ID >> 18 & frame.MaxStandardID)
		ext := uint64(f.ID & (1<<18 - 1))
		// SRR and IDE are recessive (1): an extended frame loses to any
		// standard frame with the same base identifier.
		return base<<21 | 1<<20 | 1<<19 | ext<<1 | rtr
	}
	// Standard: base id, RTR in the slot shared with SRR, dominant IDE,
	// and dominant filler for the bits an extended competitor would send.
	return uint64(f.ID)<<21 | rtr<<20
}
