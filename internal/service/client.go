package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gpusimpow/internal/sweep"
)

// Client is the Go consumer of the service API — what cmd/gpowexp's
// -remote mode (and the smoke tests) drive. The zero HTTP client is
// replaced by http.DefaultClient.
//
// The client is self-healing: transport errors, 429 (saturated) and 5xx
// responses retry with capped exponential backoff plus jitter, honoring
// any Retry-After the server sends. Submissions carry a generated
// Idempotency-Key, so a retried submit whose first response was lost
// resolves to the already-created job instead of a duplicate. The NDJSON
// streams go through Follow, the repo's one resumable stream reader (the
// fleet router proxies its streams through it too): they resume across
// severed connections and daemon restarts via the server's ?from=N
// offset, delivering every line exactly once in order — a consumer
// piping records to a file survives a mid-sweep daemon crash with
// byte-identical output.
type Client struct {
	// Base is the daemon's base URL ("http://127.0.0.1:8080").
	Base string
	// HTTP overrides the transport (httptest servers inject theirs).
	HTTP *http.Client
	// RetryAttempts bounds retries per request (and consecutive
	// no-progress reconnects per stream). 0 selects 8; negative disables
	// retrying entirely.
	RetryAttempts int
	// RetryBase is the first backoff delay (0 selects 100ms); successive
	// delays double, jittered, capped at RetryMax (0 selects 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Logf, when set, narrates retries and resumptions (gpowexp -v).
	Logf func(format string, args ...any)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

func (c *Client) attempts() int {
	if c.RetryAttempts < 0 {
		return 0
	}
	if c.RetryAttempts == 0 {
		return 8
	}
	return c.RetryAttempts
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// backoff computes the delay before retry number attempt (0-based):
// RetryBase doubled per attempt, capped at RetryMax, jittered to 50–100%
// so a fleet of clients re-finding a restarted daemon does not stampede.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxD := c.RetryMax
	if maxD <= 0 {
		maxD = 5 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > maxD {
		d = maxD
	}
	return d/2 + time.Duration(mrand.Int64N(int64(d/2)+1))
}

// sleep waits d or until the context dies.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// sleepBounded waits d, but never past ctx's deadline: a backoff (or a
// server Retry-After) that would outlive the context is pointless — the
// retry it delays could never be issued — so it returns
// context.DeadlineExceeded immediately instead of sleeping into a
// guaranteed failure.
func sleepBounded(ctx context.Context, d time.Duration) error {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return context.DeadlineExceeded
	}
	return sleep(ctx, d)
}

// retryAfter extracts a 429/503 response's Retry-After delay (0 when
// absent or unparseable; only the delta-seconds form is supported).
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	return 0
}

// retryableStatus marks responses worth retrying: saturation (429),
// server faults and drains (5xx). Everything 4xx-but-429 is the caller's
// bug and retrying cannot fix it.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// do issues one request with the retry policy: transport errors and
// retryable statuses back off and reissue (the body is rebuilt from
// bytes each attempt), everything else returns as-is. idemKey, when
// non-empty, is sent as the Idempotency-Key header on every attempt —
// which is exactly what makes reissuing a POST safe.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idemKey string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := c.httpClient().Do(req)
		if err == nil && !retryableStatus(resp.StatusCode) {
			return resp, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = DecodeError(resp) // also closes the body
		}
		if attempt >= c.attempts() || ctx.Err() != nil {
			return nil, lastErr
		}
		d := c.backoff(attempt)
		if ra := retryAfter(resp); ra > 0 {
			d = ra
		}
		c.logf("service: %s %s: %v; retrying in %v", method, path, lastErr, d)
		if err := sleepBounded(ctx, d); err != nil {
			return nil, errors.Join(err, lastErr)
		}
	}
}

// HTTPError is a response the service answered with an error status: its
// code, and the message of its {"error": ...} envelope (the raw body when
// it has none).
type HTTPError struct {
	Code int
	Msg  string
}

func (e *HTTPError) Error() string { return fmt.Sprintf("service: %s (HTTP %d)", e.Msg, e.Code) }

// DecodeError reads an error response into an *HTTPError and closes its
// body.
func DecodeError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	e := &HTTPError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(body))}
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		e.Msg = env.Error
	}
	return e
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Scenarios lists the daemon's registered scenarios.
func (c *Client) Scenarios(ctx context.Context) ([]*sweep.ScenarioInfo, error) {
	var out []*sweep.ScenarioInfo
	if err := c.getJSON(ctx, "/v1/scenarios", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ProbeHealth fetches the enriched /v1/healthz payload (status, load,
// cache heat, drain state); ok is true for a 200, false while the daemon
// drains. Not retried — health is a point probe, and a dead or hung
// daemon should report as one within ctx's deadline.
func (c *Client) ProbeHealth(ctx context.Context) (*HealthInfo, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/healthz"), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	var hi HealthInfo
	if err := json.NewDecoder(resp.Body).Decode(&hi); err != nil {
		return nil, false, err
	}
	return &hi, resp.StatusCode == http.StatusOK, nil
}

// newIdempotencyKey generates one client-chosen submission identity.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "" // no entropy, no idempotency — submits still work
	}
	return hex.EncodeToString(b[:])
}

// Submit submits one job request and returns its initial status. The
// request carries a generated Idempotency-Key, so the retry loop can
// safely reissue it: if the daemon processed a previous attempt whose
// response was lost, the retry returns that same job (HTTP 200) instead
// of creating a duplicate (202).
func (c *Client) Submit(ctx context.Context, jr sweep.JobRequest) (*JobStatus, error) {
	return c.SubmitKeyed(ctx, jr, newIdempotencyKey())
}

// SubmitKeyed is Submit with a caller-chosen Idempotency-Key. The fleet
// router dispatches through this: routing and failover re-dispatch reuse
// one key per fleet job, so a job re-sent to a survivor — or raced by two
// re-dispatchers — resolves to a single backend job.
func (c *Client) SubmitKeyed(ctx context.Context, jr sweep.JobRequest, key string) (*JobStatus, error) {
	body, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, key)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job's status.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.getJSON(ctx, "/v1/jobs", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	resp.Body.Close()
	return nil
}

// permanentError marks a stream failure resumption cannot fix: the job
// itself ended, the consumer's callback errored, or the server rejected
// the request outright.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// JobError is a followed job's terminal outcome: the {"error": ...}
// trailer its stream ended with, which only a failed or canceled job's
// stream carries.
type JobError struct {
	ID  string // the job ID the stream was read under
	Msg string // the job's own message, as its stream's trailer carries it
}

func (e *JobError) Error() string { return fmt.Sprintf("service: job %s: %s", e.ID, e.Msg) }

// ErrSevered, wrapped in the error a Follow line callback returns, ends
// the connection as a broken one: the line counts as delivered and the
// follow resumes from the next. Any other callback error ends the follow.
var ErrSevered = errors.New("service: stream severed")

// Follow follows a job's NDJSON cell stream from line from on, handing
// line every complete payload line, newline included, exactly once and
// in order. Each connection attempt asks at which client and job ID to
// read, so a job that moves between daemons is followed to its new home.
//
// It trusts the stream contract gpowd and gpowfleet keep: a stream ends
// cleanly only when it is complete, and ends with an {"error": ...}
// trailer only for a failed or canceled job; a stream either daemon
// cannot finish (a drain, a lost backend) breaks instead. So Follow makes
// no status request. A broken connection or a torn last line counts as a
// failed attempt: lost, when non-nil, sees its error, and after c's
// jittered backoff the follow reconnects with ?from=<delivered>.
// c.RetryAttempts bounds the failed attempts in a row that deliver
// nothing.
//
// Follow returns nil at a clean end of stream, a *JobError at a trailer,
// and otherwise the first error resumption cannot fix: a 4xx response (an
// *HTTPError), a callback error, the context's error, or the last failure
// when patience runs out.
func (c *Client) Follow(ctx context.Context, from int, at func() (*Client, string), lost func(error), line func([]byte) error) error {
	delivered, failures := from, 0
	for {
		before := delivered
		cl, id := at()
		err := cl.followOnce(ctx, id, &delivered, line)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if ctx.Err() != nil {
			return err
		}
		if delivered > before {
			failures = 0 // progress resets the patience budget
		} else {
			failures++
		}
		if failures > c.attempts() {
			return err
		}
		if lost != nil {
			lost(err)
		}
		d := c.backoff(max(failures-1, 0))
		c.logf("service: job %s cells stream: %v; resuming from line %d in %v", id, err, delivered, d)
		if serr := sleepBounded(ctx, d); serr != nil {
			return errors.Join(serr, err)
		}
	}
}

// trailerPrefix starts the {"error": ...} trailer line as both daemons
// encode it; a record line starts with its "scenario" key.
var trailerPrefix = []byte(`{"error":`)

// trailer reads one complete line of job id's stream: nil for a payload,
// the job's *JobError for its trailer. Only the trailer is decoded.
func trailer(id string, line []byte) error {
	if !bytes.HasPrefix(line, trailerPrefix) {
		return nil
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return fmt.Errorf("service: job %s cells stream: decoding trailer: %w", id, err)
	}
	return &JobError{ID: id, Msg: env.Error}
}

// followOnce reads one connection of a followed stream, bumping
// *delivered per line handed to fn. A nil return is the stream's clean
// end; an error not wrapped in *permanentError means "reconnect and
// resume".
func (c *Client) followOnce(ctx context.Context, id string, delivered *int, fn func([]byte) error) error {
	resp, err := c.do(ctx, http.MethodGet,
		fmt.Sprintf("/v1/jobs/%s/cells?from=%d", id, *delivered), nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &permanentError{DecodeError(resp)}
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err == io.EOF {
			// A torn last line is never delivered: the resumed connection
			// sends it again whole.
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("service: reading job %s cells stream: %w", id, err)
		}
		if err := trailer(id, line); err != nil {
			return &permanentError{err}
		}
		err = fn(line)
		if err != nil && !errors.Is(err, ErrSevered) {
			return &permanentError{err}
		}
		*delivered++
		if err != nil {
			return err
		}
	}
}

// StreamCells follows a job's NDJSON cell stream, invoking fn for every
// record in plan order, resuming across severed connections and daemon
// restarts. It returns when the job's stream is complete, fn errors, or
// the job terminates without finishing.
func (c *Client) StreamCells(ctx context.Context, id string, fn func(*sweep.CellRecord) error) error {
	return c.Follow(ctx, 0, func() (*Client, string) { return c, id }, nil, func(line []byte) error {
		var rec sweep.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("service: decoding cell record: %w", err)
		}
		return fn(&rec)
	})
}

// Report fetches the finished job's reduced report — the server-side
// counterpart of the in-process Reduce, bit-identical after the JSON hop.
func (c *Client) Report(ctx context.Context, id string) (*sweep.Report, error) {
	var rep sweep.Report
	if err := c.getJSON(ctx, "/v1/jobs/"+id+"/report", &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
