package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/sweep"
)

// fastRetry returns a client tuned so retry tests run in milliseconds.
func fastRetry(srv *httptest.Server) *Client {
	return &Client{
		Base: srv.URL, HTTP: srv.Client(),
		RetryAttempts: 4,
		RetryBase:     time.Millisecond,
		RetryMax:      5 * time.Millisecond,
	}
}

// failNTransport refuses the first n round-trips at the transport layer —
// the connection-refused window of a daemon mid-restart.
type failNTransport struct {
	inner http.RoundTripper
	left  atomic.Int32
}

func (t *failNTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.left.Add(-1) >= 0 {
		return nil, errors.New("dial tcp: connection refused (injected)")
	}
	return t.inner.RoundTrip(req)
}

// The client rides out refused connections with backoff and succeeds once
// the daemon is back.
func TestClientRetriesConnectionErrors(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	tr := &failNTransport{inner: srv.Client().Transport}
	tr.left.Store(3)
	c := fastRetry(srv)
	c.HTTP = &http.Client{Transport: tr}

	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatalf("submit should survive 3 refused connections: %v", err)
	}
	if st.ID == "" {
		t.Errorf("no job created: %+v", st)
	}
	// With retries disabled, the same fault is fatal.
	tr.left.Store(3)
	c.RetryAttempts = -1
	if _, err := c.Jobs(context.Background()); err == nil {
		t.Error("RetryAttempts<0 must not retry")
	}
}

// 5xx bursts (a proxy hiccup, a draining daemon) retry; 4xx does not.
func TestClientRetries5xxNot4xx(t *testing.T) {
	var fails atomic.Int32
	var gets atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		if fails.Add(-1) >= 0 {
			WriteError(w, http.StatusBadGateway, errors.New("injected 502"))
			return
		}
		WriteJSON(w, http.StatusOK, []JobStatus{})
	})
	mux.HandleFunc("GET /v1/jobs/nope", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		WriteError(w, http.StatusNotFound, errors.New("no job"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := fastRetry(srv)

	fails.Store(2)
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("a 2-response 502 burst should be ridden out: %v", err)
	}
	gets.Store(0)
	if _, err := c.Job(context.Background(), "nope"); err == nil {
		t.Fatal("404 should fail")
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("404 retried %d times; 4xx must not retry", n-1)
	}
}

// A 429 with Retry-After defers the retry by the server's figure, not the
// client's own backoff.
func TestClientHonorsRetryAfter(t *testing.T) {
	var rejected atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if !rejected.Swap(true) {
			WriteError(w, http.StatusTooManyRequests, errors.New("queue full (injected)"))
			return
		}
		WriteJSON(w, http.StatusAccepted, JobStatus{ID: "job-1", State: StateQueued})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := fastRetry(srv) // RetryMax 5ms: only Retry-After can stretch the wait

	start := time.Now()
	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Errorf("status %+v", st)
	}
	// WriteError stamps Retry-After: 1 on 429s; the retry must have waited
	// roughly that second rather than the client's 5ms cap.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retried after %v; Retry-After: 1 not honored", elapsed)
	}
}

// Regression: a Retry-After longer than the context's remaining deadline
// must not be slept — the retry it defers could never be issued. The
// client returns context.DeadlineExceeded promptly instead of blocking
// until the server's figure elapses.
func TestClientBackoffBoundedByDeadline(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": "queue full (injected)"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := fastRetry(srv)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, sweep.JobRequest{Scenario: "x"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("submit against a permanently saturated server must fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error should surface the deadline: %v", err)
	}
	// Well under the server's 5s Retry-After: the client must not have
	// slept past the 150ms deadline.
	if elapsed > time.Second {
		t.Errorf("returned after %v; backoff outlived the context deadline", elapsed)
	}
	// The original failure stays diagnosable alongside the deadline.
	if !strings.Contains(err.Error(), "queue full") {
		t.Errorf("last server error lost from %v", err)
	}
}

// A submit whose response is lost after the server processed it is
// retried under the same Idempotency-Key and resolves to the same job —
// no duplicate work.
func TestClientIdempotentSubmitRetry(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	dropped := false
	inner := srv.Client().Transport
	c := fastRetry(srv)
	c.HTTP = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := inner.RoundTrip(req)
		if err == nil && req.Method == http.MethodPost && !dropped {
			dropped = true // the server processed it; the client never hears
			resp.Body.Close()
			return nil, errors.New("connection reset by peer (injected)")
		}
		return resp, err
	})}

	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("fault never injected")
	}
	var count int
	for _, js := range m.Statuses() {
		if js.Scenario == "ablation-processnode" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d jobs created; the idempotent retry must not duplicate", count)
	}
	if st.ID == "" {
		t.Errorf("replayed submit returned %+v", st)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// A stream severed mid-NDJSON resumes from the next undelivered line:
// every record arrives exactly once, in plan order, across the
// reconnect. The cut is injected server-side by the drop-connection
// faultpoint — the same torn-socket image a daemon crash leaves.
func TestClientStreamResumesAfterDrop(t *testing.T) {
	resetFaultpoint(FaultDropConnectionMidStream)
	t.Setenv("GPUSIMPOW_FAULTPOINT", FaultDropConnectionMidStream+":1")

	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := fastRetry(srv)
	ctx := context.Background()

	st, err := c.Submit(ctx, sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := c.StreamCells(ctx, st.ID, func(rec *sweep.CellRecord) error {
		got = append(got, rec.Index)
		return nil
	}); err != nil {
		t.Fatalf("stream should resume across the drop: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d records, want 5: %v", len(got), got)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("delivery order/duplication broken: %v", got)
		}
	}
}

// A clean EOF on a job that is not done (the early stream end a draining
// daemon produces) reconnects rather than silently truncating; a job
// that terminated uncleanly surfaces its error.
func TestClientStreamChecksJobOnEOF(t *testing.T) {
	calls := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-1/cells", func(w http.ResponseWriter, r *http.Request) {
		calls++
		enc := json.NewEncoder(w)
		switch calls {
		case 1:
			if r.URL.Query().Get("from") != "0" {
				t.Errorf("first connect from=%q", r.URL.Query().Get("from"))
			}
			_ = enc.Encode(&sweep.CellRecord{Index: 0}) // then clean EOF, job still running
		default:
			if r.URL.Query().Get("from") != "1" {
				t.Errorf("resume connect from=%q, want 1", r.URL.Query().Get("from"))
			}
			_ = enc.Encode(&sweep.CellRecord{Index: 1})
		}
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		st := JobStatus{ID: "job-1", State: StateInterrupted, Cells: 2}
		if calls >= 2 {
			st.State = StateDone
			st.DoneCells = 2
		}
		WriteJSON(w, http.StatusOK, st)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := fastRetry(srv)

	var got []int
	if err := c.StreamCells(context.Background(), "job-1", func(rec *sweep.CellRecord) error {
		got = append(got, rec.Index)
		return nil
	}); err != nil {
		t.Fatalf("stream should resume after an early EOF: %v", err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Errorf("delivered %v, want [0 1]", got)
	}

	// Failed jobs end the stream with their error, not a retry loop.
	mux2 := http.NewServeMux()
	mux2.HandleFunc("GET /v1/jobs/job-9/cells", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "boom"})
	})
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()
	c2 := fastRetry(srv2)
	err := c2.StreamCells(context.Background(), "job-9", func(*sweep.CellRecord) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("terminal error line: %v", err)
	}
}

// A connection that ends inside a line is a broken connection, not a
// clean end of stream: only the complete line before the tear is
// delivered, and the torn line arrives whole after resuming from=1.
func TestClientStreamTornLine(t *testing.T) {
	var streams, statuses atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-1/cells", func(w http.ResponseWriter, r *http.Request) {
		line, _ := json.Marshal(&sweep.CellRecord{Index: 1})
		if streams.Add(1) == 1 {
			_ = json.NewEncoder(w).Encode(&sweep.CellRecord{Index: 0})
			_, _ = w.Write(line[:len(line)/2])
			return
		}
		if from := r.URL.Query().Get("from"); from != "1" {
			t.Errorf("resume connect from=%q, want 1", from)
		}
		_, _ = w.Write(append(line, '\n'))
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		statuses.Add(1)
		WriteJSON(w, http.StatusOK, JobStatus{ID: "job-1", State: StateDone, Cells: 2, DoneCells: 2})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var got []int
	if err := fastRetry(srv).StreamCells(context.Background(), "job-1", func(rec *sweep.CellRecord) error {
		got = append(got, rec.Index)
		return nil
	}); err != nil {
		t.Fatalf("stream should resume after a torn line: %v", err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Errorf("delivered %v, want [0 1]", got)
	}
	if n := statuses.Load(); n != 1 {
		t.Errorf("job status checked %d times, want once (after the resumed stream's end)", n)
	}
}

// /v1/healthz flips to 503 when the manager drains; ?from validation
// rejects garbage; the Idempotency-Key header replays over raw HTTP.
func TestHealthzFromAndIdempotencyHTTP(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	if hi, ok, err := c.ProbeHealth(ctx); err != nil || !ok || hi.Status != "ok" {
		t.Errorf("healthz: %+v %v %v", hi, ok, err)
	}

	// Raw idempotent submits: 202 then 200, same job.
	body := `{"scenario":"ablation-processnode"}`
	post := func(key string) (*http.Response, error) {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		return srv.Client().Do(req)
	}
	r1, err := post("test-key-1")
	if err != nil {
		t.Fatal(err)
	}
	var st1, st2 JobStatus
	_ = json.NewDecoder(r1.Body).Decode(&st1)
	r1.Body.Close()
	r2, err := post("test-key-1")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(r2.Body).Decode(&st2)
	r2.Body.Close()
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusOK {
		t.Errorf("status codes %d/%d, want 202 then 200", r1.StatusCode, r2.StatusCode)
	}
	if st1.ID == "" || st1.ID != st2.ID {
		t.Errorf("idempotent replay returned %q then %q", st1.ID, st2.ID)
	}

	// from=N validation.
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st1.ID + "/cells?from=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("from=bogus returned %d, want 400", resp.StatusCode)
	}

	// Drained manager: healthz 503, submits 503.
	m.Shutdown(ctx)
	hi, ok, err := c.ProbeHealth(ctx)
	if err != nil || ok || hi.Status == "ok" {
		t.Errorf("healthz after shutdown: %+v %v %v", hi, ok, err)
	}
	// A *known* key still replays during drain (replays are reads); a
	// fresh submission is refused.
	resp, err = post("test-key-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("known-key replay during drain returned %d, want 200", resp.StatusCode)
	}
	resp, err = post("test-key-2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
	m.Close()
}
