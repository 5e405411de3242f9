package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// tailCapacity bounds a job's rendered-line tail. At ~150 bytes per
// NDJSON line this is on the order of 1 MiB per job, and only jobs whose
// events were actually streamed pay it.
const tailCapacity = 8192

// LineTail is a bounded buffer of rendered NDJSON event lines with
// absolute indexing: line i is the i-th line ever rendered for the job,
// regardless of how many have been dropped since. It is what lets a
// dropped /events client reconnect with ?from=N and resume exactly where
// it stopped, instead of re-reading from an already-drained ring.
type LineTail struct {
	mu    sync.Mutex
	start uint64 // absolute index of lines[0]
	lines [][]byte
	max   int
}

// NewLineTail creates a tail holding at most max lines (minimum 1).
func NewLineTail(max int) *LineTail {
	if max < 1 {
		max = 1
	}
	return &LineTail{max: max}
}

// Append records one rendered line, dropping the oldest beyond capacity.
func (t *LineTail) Append(line []byte) {
	cp := append([]byte(nil), line...)
	t.mu.Lock()
	t.lines = append(t.lines, cp)
	for len(t.lines) > t.max {
		t.lines = t.lines[1:]
		t.start++
	}
	t.mu.Unlock()
}

// Since returns copies of the buffered lines at absolute index >= from
// and the absolute index of the first returned line (callers detect a
// gap by comparing it against the index they asked for).
func (t *LineTail) Since(from uint64) ([][]byte, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.start
	if from > first {
		first = from
	}
	end := t.start + uint64(len(t.lines))
	if first >= end {
		return nil, end
	}
	out := make([][]byte, 0, end-first)
	for i := first - t.start; i < uint64(len(t.lines)); i++ {
		out = append(out, t.lines[i])
	}
	return out, first
}

// StreamTail serves tail as an NDJSON stream: lines from the absolute
// index in the request's ?from=N (default 0) onward, flushed as they
// appear, until the client goes away — or, when done is non-nil, until
// done closes and the tail is drained. fill, if non-nil, runs before
// every pass to render new lines into the tail. A nil tail answers an
// empty stream. Both daemons' event endpoints share this loop.
func StreamTail(w http.ResponseWriter, r *http.Request, tail *LineTail, done <-chan struct{}, fill func()) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if tail == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	cursor, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		cursor = 0
	}
	ship := func() bool {
		if fill != nil {
			fill()
		}
		lines, first := tail.Since(cursor)
		cursor = first
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return false
			}
			if _, err := w.Write([]byte("\n")); err != nil {
				return false
			}
			cursor++
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ctx := r.Context()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if !ship() {
			return // client went away
		}
		select {
		case <-done: // a nil done never fires: stream until the client leaves
			ship()
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// lineSplitter adapts a byte stream into whole lines: it buffers writes
// and hands every complete '\n'-terminated line (without the newline) to
// fn. It is the glue between obs.JSONLWriter's buffered output and the
// line-indexed tail.
type lineSplitter struct {
	buf []byte
	fn  func(line []byte)
}

func (ls *lineSplitter) Write(p []byte) (int, error) {
	ls.buf = append(ls.buf, p...)
	for {
		i := bytes.IndexByte(ls.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		ls.fn(ls.buf[:i])
		ls.buf = ls.buf[i+1:]
	}
}
