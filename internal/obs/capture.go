package obs

import "sync"

// Capture is a bounded event recorder for after-the-fact export: it
// keeps the first Max events of a stream (the prefix a trace exporter
// reconstructs spans from) and counts what it had to let go. Unlike the
// Ring, which is a lossy live hand-off between goroutines, a Capture is
// an archive — nothing drains it; the whole run stays addressable until
// the owner drops it. Safe for concurrent producers.
type Capture struct {
	mu      sync.Mutex
	max     int
	events  []Event
	dropped uint64
}

var _ Sink = (*Capture)(nil)

// NewCapture creates a capture keeping at most max events (minimum 1).
// Storage grows on demand, so an idle capture costs a few words.
func NewCapture(max int) *Capture {
	if max < 1 {
		max = 1
	}
	return &Capture{max: max}
}

// Emit implements Sink. Events beyond the capacity are counted, not
// stored: a trace built from a saturated capture is a truthful prefix
// plus an explicit gap, never a silently resampled stream.
func (c *Capture) Emit(e Event) {
	c.mu.Lock()
	if len(c.events) < c.max {
		c.events = append(c.events, e)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Events returns a copy of the captured prefix in emission order.
func (c *Capture) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of captured events.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Dropped returns the number of events that arrived after the capture
// was full.
func (c *Capture) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
