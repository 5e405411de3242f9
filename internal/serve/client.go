package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to a simulation service over its /v1 API. The zero-value
// HTTP client rides defaultHTTP's pooled transport; long waits ride on
// the request context, not on a transport timeout.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8329".
	BaseURL string
	// HTTP is the underlying client (defaultHTTP when nil).
	HTTP *http.Client
}

// defaultHTTP is the shared client behind every zero-value Client:
// explicit dial, handshake and idle-pool bounds, where
// http.DefaultClient would hold unlimited idle sockets forever — a leak
// under fleet worker churn, where coordinators open connections to
// workers that keep dying. No overall or response-header timeout: a
// blocking ?wait= submit legitimately holds its response open for the
// whole job, so deadlines belong to the request context.
var defaultHTTP = &http.Client{
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          64,
		MaxIdleConnsPerHost:   8,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: time.Second,
	},
}

// NewClient creates a client for the given service root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTP
}

// APIError is a non-2xx reply from the service.
type APIError struct {
	Code       int
	Message    string
	RetryAfter time.Duration // from Retry-After on 429, else 0
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %d from service: %s", e.Code, e.Message)
}

func decodeAPIError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	msg := strings.TrimSpace(string(body))
	var ae apiError
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		msg = ae.Error
	}
	err := &APIError{Code: resp.StatusCode, Message: msg}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil {
			err.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return err
}

// Submit posts a spec. wait > 0 asks the service to block that long for
// completion; wait < 0 blocks until the job finishes (bounded by ctx).
func (c *Client) Submit(ctx context.Context, spec *JobSpec, wait time.Duration) (*SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("serve: encode job spec: %w", err)
	}
	url := c.BaseURL + "/v1/jobs"
	switch {
	case wait < 0:
		url += "?wait=true"
	case wait > 0:
		url += "?wait=" + wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, decodeAPIError(resp)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("serve: decode submit response: %w", err)
	}
	return &sr, nil
}

// Job fetches a job's status by digest.
func (c *Client) Job(ctx context.Context, id Digest) (*JobStatus, error) {
	var st JobStatus
	if err := c.GetJSON(ctx, "/v1/jobs/"+string(id), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls a job until it reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id Digest, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-tick.C:
		}
	}
}

// Events streams a job's NDJSON event lines, calling fn for each line
// until the stream ends or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id Digest, fn func(line []byte) error) error {
	return c.EventsFrom(ctx, id, 0, fn)
}

// EventsFrom streams a job's NDJSON event lines starting at absolute
// line index from (the server replays its buffered tail from there), so
// a caller that counted received lines can resume a dropped stream.
func (c *Client) EventsFrom(ctx context.Context, id Digest, from uint64, fn func(line []byte) error) error {
	return c.Lines(ctx, "/v1/jobs/"+string(id)+"/events", from, fn)
}

// Lines streams one NDJSON endpoint (a service-root-relative path whose
// server replays a line tail honouring ?from=N) starting at absolute
// line index from, calling fn per line. It is the single-connection
// primitive under EventsFrom and WatchLines; fleet endpoints reuse it
// for their own event streams.
func (c *Client) Lines(ctx context.Context, path string, from uint64, fn func(line []byte) error) error {
	if from > 0 {
		path += "?from=" + strconv.FormatUint(from, 10)
	}
	return c.get(ctx, path, false, func(body io.Reader) error {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			if err := fn(sc.Bytes()); err != nil {
				return &callbackError{err: err}
			}
		}
		return sc.Err()
	})
}

// callbackError marks an error as raised by the caller's line callback,
// so retry loops propagate it instead of reconnecting.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// watchMaxFailures bounds consecutive reconnect attempts that made no
// progress (received no line) before Watch gives up.
const watchMaxFailures = 8

// Watch streams a job's NDJSON event lines like Events, but survives
// dropped connections: on a transport error (or an EOF that arrives
// before the job is terminal) it reconnects with exponential backoff
// plus jitter, resuming from the last line it delivered, so fn sees
// every line exactly once across reconnects. It returns nil once the job
// is terminal and its stream is drained.
func (c *Client) Watch(ctx context.Context, id Digest, fn func(line []byte) error) error {
	return c.WatchLines(ctx, "/v1/jobs/"+string(id)+"/events", fn, func(ctx context.Context) bool {
		st, err := c.Job(ctx, id)
		return err == nil && (st.State == StateDone || st.State == StateFailed)
	})
}

// WatchLines streams any ?from=N-resumable NDJSON endpoint with Watch's
// reconnect discipline: on a drop it backs off (exponentially, with
// jitter) and resumes at the line count it already delivered, so fn
// sees every line exactly once across reconnects. finished, if non-nil,
// is consulted after a clean EOF: returning true ends the watch with
// nil (the stream's source is terminal and drained); with finished nil
// a clean EOF is treated as a drop and the watch reconnects until the
// no-progress budget runs out or ctx ends. It is the shared reconnect
// engine for job event streams and the fleet's shard-progress stream.
func (c *Client) WatchLines(ctx context.Context, path string, fn func(line []byte) error, finished func(ctx context.Context) bool) error {
	var seen uint64
	failures := 0
	backoff := 200 * time.Millisecond
	//lint:allow determinism -- client-side retry jitter; not simulation state
	jitter := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		progressed := false
		err := c.Lines(ctx, path, seen, func(line []byte) error {
			seen++
			progressed = true
			return fn(line)
		})
		var cb *callbackError
		if errors.As(err, &cb) {
			return cb.err
		}
		if err == nil && finished != nil && finished(ctx) {
			// Clean EOF and the source is terminal: the stream is drained.
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == http.StatusNotFound {
			return err // the resource does not exist; retrying cannot help
		}
		if progressed {
			failures = 0
			backoff = 200 * time.Millisecond
		} else if failures++; failures >= watchMaxFailures {
			if err == nil {
				err = fmt.Errorf("serve: watch %s: no progress after %d reconnects", path, failures)
			}
			return err
		}
		delay := backoff
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			delay = ae.RetryAfter
		}
		//lint:allow determinism -- client-side retry jitter; not simulation state
		delay += time.Duration(jitter.Int63n(int64(delay) / 2))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		if backoff *= 2; backoff > 10*time.Second {
			backoff = 10 * time.Second
		}
	}
}

// SubmitRetry is Submit with backpressure handling: a 429 reply is
// retried after the service's Retry-After estimate (plus jitter, capped
// by attempts), so callers driving campaign batches through a busy
// service queue up instead of failing.
func (c *Client) SubmitRetry(ctx context.Context, spec *JobSpec, wait time.Duration, attempts int) (*SubmitResponse, error) {
	if attempts < 1 {
		attempts = 1
	}
	//lint:allow determinism -- client-side retry jitter; not simulation state
	jitter := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastErr error
	fallback := time.Second
	for i := 0; i < attempts; i++ {
		sr, err := c.Submit(ctx, spec, wait)
		var ae *APIError
		if err == nil || !errors.As(err, &ae) || ae.Code != http.StatusTooManyRequests {
			return sr, err
		}
		lastErr = err
		delay := ae.RetryAfter
		if delay <= 0 {
			// No Retry-After estimate: grow our own backoff so repeated
			// blind retries spread out instead of arriving every second.
			delay = fallback
			if fallback *= 2; fallback > 30*time.Second {
				fallback = 30 * time.Second
			}
		}
		//lint:allow determinism -- client-side retry jitter; not simulation state
		delay += time.Duration(jitter.Int63n(int64(delay) / 2))
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
	return nil, lastErr
}

// get issues a GET for a service-root-relative path and hands the reply
// body to read. A status other than 200 becomes an *APIError unless
// anyStatus is set (a draining /v1/healthz answers 503 with a report).
func (c *Client) get(ctx context.Context, path string, anyStatus bool, read func(body io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if !anyStatus && resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	return read(resp.Body)
}

// getBytes GETs path and returns the whole reply body.
func (c *Client) getBytes(ctx context.Context, path string) ([]byte, error) {
	var data []byte
	err := c.get(ctx, path, false, func(body io.Reader) error {
		var err error
		if data, err = io.ReadAll(body); err != nil {
			return fmt.Errorf("serve: read %s: %w", path, err)
		}
		return nil
	})
	return data, err
}

// Stats fetches the scheduler statistics.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.GetJSON(ctx, "/v1/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// GetJSON fetches an arbitrary service path and decodes the JSON reply
// into v — the escape hatch for endpoints outside the core job API
// (e.g. a coordinator's /v1/fleet), keeping the transport, error
// envelope and timeout behaviour of the typed helpers.
func (c *Client) GetJSON(ctx context.Context, path string, v any) error {
	return c.get(ctx, path, false, func(body io.Reader) error {
		return decodeJSON(body, path, v)
	})
}

// decodeJSON decodes one JSON reply body from path into v.
func decodeJSON(body io.Reader, path string, v any) error {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("serve: decode %s: %w", path, err)
	}
	return nil
}

// Trace downloads a finished job's Perfetto trace (Chrome trace-event
// JSON). The server answers 409 until the job is terminal.
func (c *Client) Trace(ctx context.Context, id Digest) ([]byte, error) {
	return c.getBytes(ctx, "/v1/jobs/"+string(id)+"/trace")
}

// MetricsText fetches the Prometheus text-format exposition.
func (c *Client) MetricsText(ctx context.Context) ([]byte, error) {
	return c.getBytes(ctx, "/metrics")
}

// Healthz reports the service health status string ("ok", "degraded"
// or "draining").
func (c *Client) Healthz(ctx context.Context) (string, error) {
	h, err := c.Health(ctx)
	if err != nil {
		return "", err
	}
	return h.Status, nil
}

// Health fetches the full health report: status, per-store durability
// state and build identity — what a fleet registry heartbeat consumes.
// A draining service answers 503 with the same report.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var h HealthResponse
	err := c.get(ctx, "/v1/healthz", true, func(body io.Reader) error {
		return decodeJSON(body, "/v1/healthz", &h)
	})
	if err != nil {
		return nil, err
	}
	return &h, nil
}
