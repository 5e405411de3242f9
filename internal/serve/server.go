package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// maxSpecBytes bounds a submitted job spec; canonical specs are small,
// and the limit keeps a misbehaving client from buffering gigabytes.
const maxSpecBytes = 1 << 20

// Server is the HTTP face of a Scheduler: the /v1 job API. It is an
// http.Handler; mount it on any listener.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wraps a scheduler in the /v1 API.
func NewServer(s *Scheduler) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	srv.mux.HandleFunc("GET /v1/jobs/{id}", srv.handleJob)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/events", srv.handleEvents)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/trace", srv.handleTrace)
	srv.mux.HandleFunc("GET /v1/healthz", srv.handleHealthz)
	srv.mux.HandleFunc("GET /v1/stats", srv.handleStats)
	srv.mux.HandleFunc("GET /metrics", srv.handleMetrics)
	return srv
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the indented JSON reply body with the given
// status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the uniform {"error": ...} reply body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// SubmitResponse is the POST /v1/jobs reply.
type SubmitResponse struct {
	ID        Digest    `json:"id"`
	Admission string    `json:"admission"` // enqueued | coalesced | cached
	Status    JobStatus `json:"status"`
}

// handleSubmit accepts a job spec, admits it and — when ?wait is given —
// blocks until the job finishes or the wait budget expires.
//
//	200: terminal (cache hit, or wait satisfied)
//	202: admitted, still queued or running
//	400: malformed or invalid spec
//	429: shard queue full (Retry-After set)
//	503: draining
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		WriteError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, adm, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.sched.RetryAfter().Seconds())))
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if wait, ok := parseWait(r.URL.Query().Get("wait")); ok {
		ctx := r.Context()
		if wait > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, wait)
			defer cancel()
		}
		select {
		case <-job.Done():
		case <-ctx.Done():
		}
	}

	st := job.Status()
	code := http.StatusAccepted
	if st.State == StateDone || st.State == StateFailed {
		code = http.StatusOK
	}
	WriteJSON(w, code, SubmitResponse{ID: job.Digest(), Admission: adm.String(), Status: st})
}

// parseWait interprets the ?wait query parameter: absent/false disables
// waiting; "true"/"1"/"" wait until the request context ends; otherwise
// a Go duration ("30s") bounds the wait.
func parseWait(v string) (time.Duration, bool) {
	switch v {
	case "":
		return 0, false
	case "0", "false", "no":
		return 0, false
	case "1", "true", "yes":
		return 0, true
	}
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		return d, true
	}
	return 0, false
}

// pathDigest extracts the {id} wildcard and rejects anything that is not
// a well-formed content address. ServeMux decodes %2F inside wildcard
// segments, so without this check a crafted id could walk out of the
// spool directory when the scheduler falls back to a spool read.
func pathDigest(w http.ResponseWriter, r *http.Request) (Digest, bool) {
	d := Digest(r.PathValue("id"))
	if !d.Valid() {
		// The id is not echoed back: it is attacker-controlled input.
		WriteError(w, http.StatusNotFound, "serve: malformed job id (want 64 lowercase hex digits)")
		return "", false
	}
	return d, true
}

// JobFromPath resolves the {id} wildcard to a job record of s,
// answering 404 itself when the id is malformed or unknown.
func JobFromPath(w http.ResponseWriter, r *http.Request, s *Scheduler) (*Job, bool) {
	d, ok := pathDigest(w, r)
	if !ok {
		return nil, false
	}
	job, ok := s.Job(d)
	if !ok {
		WriteError(w, http.StatusNotFound, "serve: unknown job %s", d.Short())
	}
	return job, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := JobFromPath(w, r, s.sched)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, job.Status())
}

// handleEvents streams a running job's protocol events as NDJSON, one
// event per line, flushed as emitted. One streamer per job: a second
// concurrent reader gets 409. The stream ends when the job reaches a
// terminal state and the ring is drained.
//
// Events are rendered into a bounded per-job line tail before going to
// the client, and ?from=N replays the tail from absolute line index N —
// a client that counted the lines it received can reconnect after a drop
// and resume exactly where it stopped (lines older than the tail's
// capacity are gone, as ring overflow already makes the stream lossy).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := JobFromPath(w, r, s.sched)
	if !ok {
		return
	}
	if job.ring == nil || job.tail == nil {
		// Cache hits never ran here; there is no event stream.
		StreamTail(w, r, nil, nil, nil)
		return
	}
	select {
	case job.streamMu <- struct{}{}:
		defer func() { <-job.streamMu }()
	default:
		WriteError(w, http.StatusConflict, "serve: job %s already has an event streamer", job.Digest().Short())
		return
	}

	// The renderer drains ring events into the tail before every pass;
	// StreamTail ships tail lines to the client. Decoupling the two is
	// what makes resume work: every rendered line is indexed before it is
	// sent anywhere.
	render := obs.NewJSONLStream(&lineSplitter{fn: job.tail.Append}, runTag(job.spec), nil)
	StreamTail(w, r, job.tail, job.Done(), func() {
		job.ring.Drain(render)
		_ = render.Flush()
	})
}

// runTag picks the JSONL run tag for a job's event stream: the base seed
// where the spec has one.
func runTag(spec *JobSpec) int64 {
	switch {
	case spec == nil:
		return 0
	case spec.Sweep != nil:
		return spec.Sweep.Seed
	case spec.Campaign != nil:
		return spec.Campaign.Seed
	default:
		return 0
	}
}

// HealthResponse is the GET /v1/healthz reply. Status is the summary a
// load balancer switches on; the per-store fields let a fleet registry
// distinguish a healthy worker from one whose durability has degraded
// to memory-only (still serving, but a crash loses work), and the build
// fields identify what is actually running on the other end.
type HealthResponse struct {
	Status    string `json:"status"` // ok | degraded | draining
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"goVersion,omitempty"`
	// Journal / Spool / Checkpoints: ok | degraded | disabled.
	Journal     string `json:"journal,omitempty"`
	Spool       string `json:"spool,omitempty"`
	Checkpoints string `json:"checkpoints,omitempty"`
}

// Degraded reports whether any configured durability store has failed
// over to memory-only operation.
func (h HealthResponse) Degraded() bool {
	return h.Journal == "degraded" || h.Spool == "degraded" || h.Checkpoints == "degraded"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.sched.Health()
	code := http.StatusOK
	if h.Status == "draining" {
		// Draining stays 503 so dumb health checks pull the instance;
		// degraded is 200 — the service still answers correctly, the
		// body says what it lost.
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.sched.Stats())
}

// handleMetrics serves the scheduler state as Prometheus text
// exposition format: the scrape surface for dashboards and the CI
// format lint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = WriteMetrics(w, s.sched.Stats())
}

// handleTrace serves a finished job's end-to-end timeline as Chrome
// trace-event JSON, loadable in Perfetto. The timeline is only complete
// once the job is terminal; a request for a live job gets 409.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := JobFromPath(w, r, s.sched)
	if !ok {
		return
	}
	tr, err := BuildTrace(job)
	if errors.Is(err, ErrJobRunning) {
		WriteError(w, http.StatusConflict, "serve: job %s not finished; retry after completion", job.Digest().Short())
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "serve: build trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = tr.Write(w)
}
