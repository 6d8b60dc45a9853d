package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"gpusimpow/internal/sweep"
)

// NewServer wraps a Manager in the service's HTTP API:
//
//	GET    /v1/healthz          liveness: 200 while serving, 503 draining
//	GET    /v1/scenarios        scenario metadata (sweep.ScenarioInfo list)
//	POST   /v1/jobs             submit a sweep.JobRequest -> 202 + JobStatus
//	GET    /v1/jobs             every job's status, creation order
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel (idempotent) -> JobStatus
//	GET    /v1/jobs/{id}/cells  NDJSON stream of CellRecords in plan order
//	GET    /v1/jobs/{id}/report the scenario's reduced sweep.Report (JSON)
//
// Submissions may carry an Idempotency-Key header: retrying the same key
// returns the already-created job (200 instead of 202) rather than a
// duplicate, which is what makes client-side retries of lost responses
// safe. Admission rejections are 429 with a Retry-After; a draining
// daemon answers 503 with a Retry-After.
//
// The cells stream follows a running job live: each line is one
// sweep.CellRecord, flushed as the cell completes, always in plan order;
// line i is cell i, so a reader's progress is its line count over the
// status's Cells. A ?from=N query skips the first N lines — the
// resumption handle a client that lost its connection after N lines
// replays from, exact because records are placed by plan index. If the job fails or is canceled
// mid-stream, a final {"error": "..."} line terminates the stream. A
// stream that ends cleanly is complete; one the daemon cannot finish (a
// drain, an abandoned re-derivation) breaks instead.
//
// The report endpoint reduces the finished job's records server-side
// through the scenario registry's Reduce hook: 409 while the job is still
// queued/running, 404 for scenarios without a reduction. The JSON is the
// same typed Report the in-process CLI reduces, DeepEqual across the wire.
func NewServer(m *Manager) http.Handler {
	s := &server{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/scenarios", s.scenarios)
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.jobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/cells", s.jobCells)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.jobReport)
	return mux
}

type server struct {
	m *Manager

	// Scenario metadata is static after init (the registry only grows at
	// package init time), so describe once.
	scenOnce sync.Once
	scenInfo []*sweep.ScenarioInfo
	scenErr  error
}

// WriteJSON writes one JSON response, indented — the envelope gpowd and
// the fleet router share.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the service's error envelope. Backpressure codes
// (429 saturated, 503 draining) carry a Retry-After the client honors.
func WriteError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// StreamFrom parses a stream request's ?from=N resumption offset, the
// number of lines the reader already has (0 when absent).
func StreamFrom(r *http.Request) (int, error) {
	v := r.URL.Query().Get("from")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid from=%q", v)
	}
	return n, nil
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.m.fault.Fire(FaultBlackholeProbe) {
		// Hang until the prober gives up — a hung (not refused) health
		// check, the slow-failure mode circuit breakers exist for.
		<-r.Context().Done()
		return
	}
	hi, ok := s.m.HealthInfo()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, hi)
}

func (s *server) scenarios(w http.ResponseWriter, r *http.Request) {
	s.scenOnce.Do(func() { s.scenInfo, s.scenErr = sweep.DescribeAll() })
	if s.scenErr != nil {
		WriteError(w, http.StatusInternalServerError, s.scenErr)
		return
	}
	WriteJSON(w, http.StatusOK, s.scenInfo)
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req sweep.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding job request: %w", err))
		return
	}
	j, replayed, err := s.m.SubmitIdempotent(req, r.Header.Get("Idempotency-Key"))
	if err != nil {
		code := http.StatusBadRequest
		var busy ErrBusy
		switch {
		case errors.As(err, &busy):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, sweep.ErrUnknownScenario):
			code = http.StatusNotFound
		}
		WriteError(w, code, err)
		return
	}
	if replayed {
		// The key already named a submission (a retry of a response the
		// client never saw): acknowledge the existing job, don't duplicate.
		WriteJSON(w, http.StatusOK, j.Status())
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Status())
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.m.Statuses())
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Job(id)
	if !ok && s.m.issued(id) {
		WriteError(w, http.StatusGone, fmt.Errorf("job %q is gone (pruned)", id))
		return nil, false
	}
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *server) jobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Status())
	}
}

func (s *server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	_ = s.m.Cancel(j.ID())
	WriteJSON(w, http.StatusOK, j.Status())
}

// jobCells serves a job's NDJSON cell stream (see NewServer): line i is
// cell i's record, written as soon as WaitCell yields it. The stream ends
// cleanly only when it is complete: a done job's after its last cell, a
// failed or canceled job's after its {"error": ...} line. Any other end (a
// drain, a re-derivation Close abandoned, a gone client) aborts the
// connection, so a reader never mistakes it for the whole stream and
// resumes with ?from=N.
func (s *server) jobCells(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	from, err := StreamFrom(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before blocking on the first cell: clients
		// (and response-header timeouts in proxies) must see "connected,
		// streaming", not silence, while the sweep simulates.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for i := from; ; i++ {
		rec, state, errMsg := j.WaitCell(r.Context(), i)
		if rec == nil {
			switch {
			case state == StateDone && i >= len(j.plan.Cells):
				return
			case state == StateFailed || state == StateCanceled:
				_ = enc.Encode(map[string]string{"error": errMsg})
				return
			}
			panic(http.ErrAbortHandler)
		}
		if err := enc.Encode(rec); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if s.m.fault.Fire(FaultDropConnectionMidStream) {
			// Sever the connection abruptly (no terminating error line, no
			// clean EOF semantics) — the torn-socket case stream resumption
			// exists for.
			panic(http.ErrAbortHandler)
		}
	}
}

func (s *server) jobReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	rep, err := j.Report()
	if err != nil {
		code := http.StatusUnprocessableEntity // reducer rejected the records
		var notReady ErrNotReady
		var gone ErrGone
		switch {
		case errors.As(err, &notReady):
			code = http.StatusConflict
		case errors.As(err, &gone), errors.As(err, new(*DeterminismError)):
			code = http.StatusGone
		case errors.Is(err, sweep.ErrUnknownScenario):
			code = http.StatusNotFound
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, err)
		return
	}
	WriteJSON(w, http.StatusOK, rep)
}
