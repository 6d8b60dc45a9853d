package fleet

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
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpusimpow/internal/service"
	"gpusimpow/internal/sweep"
)

// BackendSpec declares one fleet member.
type BackendSpec struct {
	Name string // stable identity — what the ring hashes and the store records
	URL  string // where the daemon currently lives
}

// Options configures a Router.
type Options struct {
	// Backends is the fleet membership, in declaration order.
	Backends []BackendSpec
	// StateDir persists the routing table (assignments + operator drains)
	// through the journal+snapshot store; "" keeps it in memory only.
	StateDir string
	// ProbeInterval is the health-probe cadence per backend (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default ProbeInterval, floor 100ms) —
	// a blackholed (hung, not refused) healthz counts as a failure.
	ProbeTimeout time.Duration
	// ProbeFails is the consecutive-failure threshold that trips the
	// breaker to dead (default 2).
	ProbeFails int
	// SpillQueue is the affinity owner's probed queue depth (queued +
	// running) at which new jobs spill to the least-loaded healthy backend
	// instead — affinity is a cache optimization, not a hard shard, and a
	// hot backend should shed before it saturates. <= 0 disables spilling.
	SpillQueue int
	// Logf, when set, narrates probe transitions, failovers, re-dispatches.
	Logf func(format string, args ...any)
}

// fleetJob is one routed job: the persisted assignment plus the mutex
// serializing re-dispatch. The CAS discipline in redispatch() — re-check
// the owner under the lock before moving — plus the per-job idempotency
// key at the backend make "exactly one live backend job per fleet job" a
// two-layer guarantee.
type fleetJob struct {
	mu sync.Mutex
	a  storedAssignment
}

// coords snapshots the job's current backend coordinates.
func (j *fleetJob) coords() (backend, backendID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.a.Backend, j.a.BackendID
}

// Router fronts the fleet behind the unchanged /v1/* API.
type Router struct {
	opts     Options
	ring     *Ring
	backends map[string]*Backend
	names    []string // declaration order
	store    *fleetStore

	mu          sync.Mutex
	jobs        map[string]*fleetJob
	order       []string          // fleet job creation order
	byClientKey map[string]string // client Idempotency-Key -> fleet job ID
	nextID      int

	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup

	mux *http.ServeMux
}

// NewRouter builds the router, recovers the persisted routing table, runs
// one synchronous probe round, and starts the probers.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = opts.ProbeInterval
	}
	if opts.ProbeTimeout < 100*time.Millisecond {
		opts.ProbeTimeout = 100 * time.Millisecond
	}
	if opts.ProbeFails <= 0 {
		opts.ProbeFails = 2
	}

	rt := &Router{
		opts:        opts,
		backends:    map[string]*Backend{},
		jobs:        map[string]*fleetJob{},
		byClientKey: map[string]string{},
	}
	for _, bs := range opts.Backends {
		if bs.Name == "" || bs.URL == "" || rt.backends[bs.Name] != nil {
			return nil, fmt.Errorf("fleet: invalid or duplicate backend %q", bs.Name)
		}
		rt.backends[bs.Name] = newBackend(bs.Name, bs.URL)
		rt.names = append(rt.names, bs.Name)
	}
	rt.ring = NewRing(rt.names)

	if opts.StateDir != "" {
		st, err := openFleetStore(opts.StateDir)
		if err != nil {
			return nil, err
		}
		rt.store = st
		rec := st.recover()
		rt.nextID = rec.NextID
		for _, a := range rec.Assignments {
			j := &fleetJob{a: *a}
			rt.jobs[a.ID] = j
			rt.order = append(rt.order, a.ID)
			if a.ClientKey != "" {
				rt.byClientKey[a.ClientKey] = a.ID
			}
		}
		for name := range rec.Drained {
			if b := rt.backends[name]; b != nil {
				b.setDrain(true)
			}
		}
		if rec.Skipped > 0 {
			rt.logf("fleet: recovery skipped %d corrupt journal line(s)", rec.Skipped)
		}
		if len(rec.Assignments) > 0 {
			rt.logf("fleet: recovered %d job assignment(s)", len(rec.Assignments))
		}
	}

	// One synchronous probe round so the first submit routes on real
	// state, then the steady probe loops.
	for _, name := range rt.names {
		rt.backends[name].probe(context.Background(), opts.ProbeTimeout, opts.ProbeFails)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt.probeCancel = cancel
	for _, name := range rt.names {
		b := rt.backends[name]
		rt.probeWG.Add(1)
		go func() {
			defer rt.probeWG.Done()
			tick := time.NewTicker(opts.ProbeInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					was := b.State()
					if b.probe(ctx, opts.ProbeTimeout, opts.ProbeFails) {
						rt.logf("fleet: backend %s dead (probe threshold); failing over", b.Name)
						rt.failover(b.Name)
					} else if now := b.State(); now != was {
						rt.logf("fleet: backend %s %s -> %s", b.Name, was, now)
					}
				}
			}
		}()
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /v1/healthz", rt.healthz)
	rt.mux.HandleFunc("GET /v1/scenarios", rt.scenarios)
	rt.mux.HandleFunc("POST /v1/jobs", rt.submit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.listJobs)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.jobStatus)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.cancelJob)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/cells", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyStream(w, r, "cells")
	})
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyStream(w, r, "events")
	})
	rt.mux.HandleFunc("GET /v1/jobs/{id}/report", rt.jobReport)
	rt.mux.HandleFunc("GET /v1/fleet", rt.fleetStatus)
	rt.mux.HandleFunc("POST /v1/fleet/backends/{name}/drain", func(w http.ResponseWriter, r *http.Request) {
		rt.setBackendDrain(w, r, true)
	})
	rt.mux.HandleFunc("POST /v1/fleet/backends/{name}/undrain", func(w http.ResponseWriter, r *http.Request) {
		rt.setBackendDrain(w, r, false)
	})
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

func (rt *Router) logf(format string, args ...any) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// Close stops the probers and folds the routing table into a snapshot.
func (rt *Router) Close() {
	rt.probeCancel()
	rt.probeWG.Wait()
	if rt.store != nil {
		rt.store.compact(rt.snapshot())
		rt.store.close()
	}
}

func (rt *Router) snapshot() *fleetSnapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := &fleetSnapshot{NextID: rt.nextID}
	for _, id := range rt.order {
		j := rt.jobs[id]
		j.mu.Lock()
		a := j.a
		j.mu.Unlock()
		snap.Assignments = append(snap.Assignments, &a)
	}
	for _, name := range rt.names {
		b := rt.backends[name]
		b.mu.Lock()
		drained := b.opDrain
		b.mu.Unlock()
		if drained {
			snap.Drained = append(snap.Drained, name)
		}
	}
	return snap
}

// Owner computes the pure ring owner for a request among the named
// backends, ignoring health — the `gpowfleet -route` dry-run, and the
// drill's way of predicting the victim deterministically before arming a
// faultpoint on it.
func Owner(names []string, req sweep.JobRequest) (routingKey, owner string, err error) {
	plan, err := req.Plan()
	if err != nil {
		return "", "", err
	}
	key := plan.RoutingKey()
	return key, NewRing(names).Lookup(key, nil), nil
}

// --- HTTP plumbing (mirrors internal/service's envelope) ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// healthz reports the router's own liveness plus a per-backend breaker
// summary. The router serves as long as it runs — a fleet with every
// backend dead still answers (503) rather than vanishing.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	states := map[string]State{}
	routable := 0
	for name, b := range rt.backends {
		st := b.State()
		states[name] = st
		if st == StateHealthy {
			routable++
		}
	}
	code := http.StatusOK
	status := "ok"
	if routable == 0 {
		code = http.StatusServiceUnavailable
		status = "no-routable-backends"
	}
	writeJSON(w, code, map[string]any{"status": status, "backends": states})
}

// anyAlive returns a backend able to answer read-only queries (healthy
// first, then draining — a draining backend still serves), or nil.
func (rt *Router) anyAlive() *Backend {
	for _, name := range rt.names {
		if rt.backends[name].State() == StateHealthy {
			return rt.backends[name]
		}
	}
	for _, name := range rt.names {
		if rt.backends[name].State() == StateDraining {
			return rt.backends[name]
		}
	}
	return nil
}

// scenarios proxies the scenario listing verbatim from any live backend
// (every backend runs the same binary, so any copy is authoritative).
func (rt *Router) scenarios(w http.ResponseWriter, r *http.Request) {
	b := rt.anyAlive()
	if b == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no live backends"))
		return
	}
	if err := rt.proxyRaw(w, r, b, "/v1/scenarios"); err != nil {
		writeError(w, http.StatusBadGateway, err)
	}
}

// proxyRaw forwards one GET to a backend, copying status, content type
// and body bytes verbatim — the no-re-encoding path that keeps reports
// byte-identical to a single-node run. When the backend cannot be reached
// it writes nothing and returns the error, so the caller decides between
// a 502 and a retry elsewhere.
func (rt *Router) proxyRaw(w http.ResponseWriter, r *http.Request, b *Backend, path string) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.client.Base+path, nil)
	if err != nil {
		return fmt.Errorf("backend %s: %w", b.Name, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("backend %s: %w", b.Name, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return nil
}

// newDispatchKey generates the router-owned Idempotency-Key a fleet job
// carries to every backend it is (re-)dispatched to.
func newDispatchKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return "fleet-" + hex.EncodeToString(b[:])
}

// pickBackend selects the target for a routing key: the ring's affinity
// owner among healthy backends, unless spilling is on and the owner's
// probed queue depth says it is saturated — then the least-loaded healthy
// backend takes the job (a cold simcache costs one timing run; a
// saturated queue costs every job behind it). Backends in excluded are
// skipped. Returns nil when nothing is routable.
func (rt *Router) pickBackend(routingKey string, excluded map[string]bool) *Backend {
	admit := func(name string) bool {
		return !excluded[name] && rt.backends[name].Routable()
	}
	owner := rt.ring.Lookup(routingKey, admit)
	if owner == "" {
		return nil
	}
	b := rt.backends[owner]
	if rt.opts.SpillQueue > 0 && b.Load() >= rt.opts.SpillQueue {
		for _, name := range rt.names {
			if admit(name) && rt.backends[name].Load() < b.Load() {
				b = rt.backends[name]
			}
		}
	}
	return b
}

// submit routes one job: plan locally (validation + routing key), pick
// the backend, dispatch under a fresh router-owned idempotency key, and
// answer with the status rewritten into the fleet's job-ID namespace.
// A client Idempotency-Key replays the existing fleet job, mirroring the
// single-node contract.
func (rt *Router) submit(w http.ResponseWriter, r *http.Request) {
	var req sweep.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job request: %w", err))
		return
	}

	clientKey := r.Header.Get("Idempotency-Key")
	if clientKey != "" {
		rt.mu.Lock()
		id, ok := rt.byClientKey[clientKey]
		j := rt.jobs[id]
		rt.mu.Unlock()
		if ok && j != nil {
			st, err := rt.backendStatus(r.Context(), j)
			if err != nil {
				writeError(w, http.StatusBadGateway, err)
				return
			}
			writeJSON(w, http.StatusOK, st)
			return
		}
	}

	plan, err := req.Plan()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, sweep.ErrUnknownScenario) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	routingKey := plan.RoutingKey()
	key := newDispatchKey()

	// Dispatch with per-candidate failover: a backend that errors at
	// submit time is excluded and the next candidate tried; the
	// idempotency key makes a lost-response retry collapse server-side.
	excluded := map[string]bool{}
	for {
		b := rt.pickBackend(routingKey, excluded)
		if b == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no routable backends"))
			return
		}
		st, err := b.client.SubmitKeyed(r.Context(), req, key)
		if err != nil {
			rt.logf("fleet: submit to %s failed (%v); trying next", b.Name, err)
			excluded[b.Name] = true
			continue
		}

		rt.mu.Lock()
		rt.nextID++
		fleetID := fmt.Sprintf("job-%d", rt.nextID)
		rt.mu.Unlock()
		a := storedAssignment{
			ID:         fleetID,
			Request:    req,
			RoutingKey: routingKey,
			Key:        key,
			ClientKey:  clientKey,
			Backend:    b.Name,
			BackendID:  st.ID,
		}
		// Journal before publishing: once the job is visible, a concurrent
		// failover may append a Reassign, which recovery can only fold onto
		// an already-journaled assignment.
		if rt.store != nil {
			rt.store.append(fleetEntry{Assign: &a})
		}
		j := &fleetJob{a: a}
		rt.mu.Lock()
		rt.jobs[fleetID] = j
		rt.order = append(rt.order, fleetID)
		if clientKey != "" {
			rt.byClientKey[clientKey] = fleetID
		}
		rt.mu.Unlock()
		rt.logf("fleet: %s -> %s (%s) key %.16s...", fleetID, b.Name, st.ID, routingKey)

		st.ID = fleetID
		writeJSON(w, http.StatusAccepted, st)
		return
	}
}

// lookup resolves a fleet job ID (404 envelope on miss).
func (rt *Router) lookup(w http.ResponseWriter, r *http.Request) (*fleetJob, bool) {
	id := r.PathValue("id")
	rt.mu.Lock()
	j := rt.jobs[id]
	rt.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

// backendStatus fetches a fleet job's status from its current backend,
// rewritten into the fleet ID namespace. A dead backend triggers failover
// and one retry against the new home.
func (rt *Router) backendStatus(ctx context.Context, j *fleetJob) (*service.JobStatus, error) {
	for attempt := 0; ; attempt++ {
		name, bid := j.coords()
		b := rt.backends[name]
		st, err := b.client.Job(ctx, bid)
		if err == nil {
			j.mu.Lock()
			st.ID = j.a.ID
			j.mu.Unlock()
			return st, nil
		}
		if attempt >= 1 || ctx.Err() != nil {
			return nil, fmt.Errorf("backend %s: %w", name, err)
		}
		rt.confirmDead(b)
		if newName, _ := j.coords(); newName == name {
			return nil, fmt.Errorf("backend %s: %w", name, err)
		}
	}
}

// confirmDead probes a misbehaving backend synchronously; a failed
// confirm trips the breaker and fails its jobs over immediately, without
// waiting for the probe loop's threshold.
func (rt *Router) confirmDead(b *Backend) {
	pctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
	defer cancel()
	if _, _, err := b.client.ProbeHealth(pctx); err == nil {
		return // alive after all; a single request hiccup
	}
	if b.markDead() {
		rt.logf("fleet: backend %s dead (confirm probe); failing over", b.Name)
	}
	// Re-dispatch even when the breaker was already tripped: this job may
	// have been assigned between the trip and now.
	rt.failover(b.Name)
}

// failover re-homes every fleet job currently assigned to the named
// backend. Each job moves at most once per loss (redispatch re-checks
// ownership under the job lock), and survivors re-execute bit-identically
// from their own journals, so riding streams resume seamlessly.
func (rt *Router) failover(name string) {
	rt.mu.Lock()
	js := make([]*fleetJob, 0, len(rt.order))
	for _, id := range rt.order {
		js = append(js, rt.jobs[id])
	}
	rt.mu.Unlock()
	for _, j := range js {
		rt.redispatch(j, name)
	}
}

// redispatch moves one fleet job off a lost backend: re-submit to a
// survivor under the job's original idempotency key, then journal the new
// coordinates. The owner re-check under j.mu makes concurrent callers
// (probe-loop failover racing a stream proxy's confirmDead) collapse to
// exactly one move — and the idempotency key makes even a true double
// submit resolve to one backend job.
func (rt *Router) redispatch(j *fleetJob, from string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.a.Backend != from {
		return false // already moved (or never here)
	}
	excluded := map[string]bool{from: true}
	for {
		b := rt.pickBackend(j.a.RoutingKey, excluded)
		if b == nil {
			rt.logf("fleet: no survivor for %s (lost %s)", j.a.ID, from)
			return false
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		st, err := b.client.SubmitKeyed(ctx, j.a.Request, j.a.Key)
		cancel()
		if err != nil {
			rt.logf("fleet: re-dispatch %s to %s failed (%v); trying next", j.a.ID, b.Name, err)
			excluded[b.Name] = true
			continue
		}
		j.a.Backend, j.a.BackendID = b.Name, st.ID
		if rt.store != nil {
			a := j.a
			rt.store.append(fleetEntry{Reassign: &a})
		}
		rt.logf("fleet: %s re-dispatched %s -> %s (%s)", j.a.ID, from, b.Name, st.ID)
		return true
	}
}

func (rt *Router) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := rt.lookup(w, r)
	if !ok {
		return
	}
	st, err := rt.backendStatus(r.Context(), j)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// listJobs aggregates every fleet job's status in creation order. A job
// whose backend cannot answer right now (mid-failover) is reported from
// the routing table as interrupted — which is what it is: queued for
// bit-identical re-execution elsewhere.
func (rt *Router) listJobs(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	js := make([]*fleetJob, 0, len(rt.order))
	for _, id := range rt.order {
		js = append(js, rt.jobs[id])
	}
	rt.mu.Unlock()
	out := make([]service.JobStatus, 0, len(js))
	for _, j := range js {
		if st, err := rt.backendStatus(r.Context(), j); err == nil {
			out = append(out, *st)
			continue
		}
		j.mu.Lock()
		out = append(out, service.JobStatus{
			ID:       j.a.ID,
			Scenario: j.a.Request.Scenario,
			Filter:   j.a.Request.Filter,
			Label:    j.a.Request.Label,
			State:    service.StateInterrupted,
		})
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := rt.lookup(w, r)
	if !ok {
		return
	}
	name, bid := j.coords()
	b := rt.backends[name]
	if err := b.client.Cancel(r.Context(), bid); err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", name, err))
		return
	}
	st, err := rt.backendStatus(r.Context(), j)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// jobReport proxies the finished job's report verbatim. A dead backend
// fails over first; the survivor's re-execution reduces to the same
// bytes (deterministic simulation + canonical JSON encoding), so which
// node answers is unobservable to the client.
func (rt *Router) jobReport(w http.ResponseWriter, r *http.Request) {
	j, ok := rt.lookup(w, r)
	if !ok {
		return
	}
	name, bid := j.coords()
	err := rt.proxyRaw(w, r, rt.backends[name], "/v1/jobs/"+bid+"/report")
	if err == nil {
		return
	}
	rt.confirmDead(rt.backends[name])
	if newName, newBid := j.coords(); newName != name {
		if err = rt.proxyRaw(w, r, rt.backends[newName], "/v1/jobs/"+newBid+"/report"); err == nil {
			return
		}
	}
	writeError(w, http.StatusBadGateway, err)
}

// errBackendDropped marks a stream severed by the drop-backend-mid-stream
// faultpoint: the proxy must treat the backend as lost, not just retry.
var errBackendDropped = errors.New("fleet: faultpoint dropped backend connection")

// errStreamEnded marks a stream the backend terminated with an {"error"}
// trailer, already forwarded to the client — the proxy is done.
var errStreamEnded = errors.New("fleet: stream ended with error trailer")

// proxyStream follows a fleet job's NDJSON endpoint across backend
// swaps: forward complete lines verbatim (never a torn fragment), and on
// any interruption reconnect to the job's current backend — wherever
// failover has moved it — with ?from=<forwarded>, the same resumption
// handle the client itself would use. The client sees one continuous
// byte-identical stream even when the backend executing the job dies
// mid-sweep; deterministic re-execution guarantees the resumed lines
// match what the lost backend would have sent.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, endpoint string) {
	j, ok := rt.lookup(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid from=%q", v))
			return
		}
		from = n
	}
	flusher, ok2 := w.(http.Flusher)
	if !ok2 {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	delivered := from
	failures := 0
	for {
		before := delivered
		name, bid := j.coords()
		b := rt.backends[name]
		err := rt.streamOnce(r.Context(), w, flusher, b, bid, endpoint, &delivered)
		switch {
		case errors.Is(err, errStreamEnded):
			return
		case err == nil:
			// Backend's clean EOF: complete, or cut short by its drain?
			st, jerr := b.client.Job(r.Context(), bid)
			if jerr == nil {
				switch {
				case st.State == service.StateDone && delivered >= st.Cells:
					return
				case st.State == service.StateFailed || st.State == service.StateCanceled:
					rt.writeTrailer(w, flusher, j, st)
					return
				}
				err = fmt.Errorf("stream ended at line %d with backend job %s", delivered, st.State)
			} else {
				err = jerr
			}
		}
		if r.Context().Err() != nil {
			return // the riding client is gone; its own resume takes over
		}
		if errors.Is(err, errBackendDropped) {
			if b.markDead() {
				rt.logf("fleet: backend %s dead (faultpoint drop); failing over", b.Name)
			}
			rt.failover(b.Name)
		} else {
			rt.confirmDead(b) // trips the breaker + fails over if truly lost
		}
		if delivered > before {
			failures = 0
		} else {
			failures++
		}
		if failures > 8 {
			// Out of patience without progress: surface the fault as a
			// trailer; the riding client's own resumption logic (reconnect
			// with ?from=) takes over from here.
			rt.writeTrailerMsg(w, flusher, fmt.Sprintf("fleet: stream interrupted at line %d: %v", delivered, err))
			return
		}
		d := 25 * time.Millisecond << uint(min(failures, 5))
		rt.logf("fleet: %s %s stream: %v; resuming from line %d in %v", j.a.ID, endpoint, err, delivered, d)
		select {
		case <-r.Context().Done():
			return
		case <-time.After(d):
		}
	}
}

// streamOnce proxies one backend connection of a resumable stream,
// bumping *delivered per complete payload line forwarded. nil is this
// connection's clean EOF; errBackendDropped / errStreamEnded are the
// special verdicts; anything else means "sever — reconnect and resume".
func (rt *Router) streamOnce(ctx context.Context, w http.ResponseWriter, flusher http.Flusher, b *Backend, bid, endpoint string, delivered *int) error {
	url := fmt.Sprintf("%s/v1/jobs/%s/%s?from=%d", b.client.Base, bid, endpoint, *delivered)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("backend %s: HTTP %d: %s", b.Name, resp.StatusCode, bytes.TrimSpace(body))
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// A torn fragment (no trailing newline) is never forwarded —
			// the reconnect replays that line whole, so the riding client
			// cannot observe the sever.
			if err == io.EOF && len(line) == 0 {
				return nil
			}
			if err == io.EOF {
				return fmt.Errorf("backend %s: stream cut mid-line", b.Name)
			}
			return err
		}
		// An {"error": ...} line is the backend's terminal trailer, not a
		// payload: forward it and end the proxy (payload lines never carry
		// an "error" key).
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(line, &env) == nil && env.Error != "" {
			_, _ = w.Write(line)
			flusher.Flush()
			return errStreamEnded
		}
		if _, err := w.Write(line); err != nil {
			return &clientGoneError{err}
		}
		flusher.Flush()
		*delivered++
		if service.Faultpoint(service.FaultSeverProxiedStream) {
			// Sever the *client's* connection after a flushed line — the
			// riding client must resume through the router via ?from=N.
			panic(http.ErrAbortHandler)
		}
		if service.Faultpoint(service.FaultDropBackendMidStream) {
			// Abandon the *backend* mid-stream and treat it as lost —
			// the in-process stand-in for a backend crash.
			return errBackendDropped
		}
	}
}

// clientGoneError marks a write failure toward the riding client.
type clientGoneError struct{ err error }

func (e *clientGoneError) Error() string { return e.err.Error() }
func (e *clientGoneError) Unwrap() error { return e.err }

// writeTrailer forwards a terminal backend state as the NDJSON error
// trailer, mirroring the single-node stream contract.
func (rt *Router) writeTrailer(w http.ResponseWriter, flusher http.Flusher, j *fleetJob, st *service.JobStatus) {
	msg := st.Error
	if msg == "" {
		j.mu.Lock()
		msg = fmt.Sprintf("job %s %s", j.a.ID, st.State)
		j.mu.Unlock()
	}
	rt.writeTrailerMsg(w, flusher, msg)
}

func (rt *Router) writeTrailerMsg(w http.ResponseWriter, flusher http.Flusher, msg string) {
	line, _ := json.Marshal(map[string]string{"error": msg})
	_, _ = w.Write(append(line, '\n'))
	flusher.Flush()
}

// --- fleet status + drain control ---

// BackendStatus is one backend's row in GET /v1/fleet.
type BackendStatus struct {
	Name    string    `json:"name"`
	URL     string    `json:"url"`
	State   State     `json:"state"`
	Queued  int       `json:"queued"`
	Running int       `json:"running"`
	Jobs    int       `json:"jobs"` // fleet jobs currently assigned here
	Probed  time.Time `json:"probed,omitempty"`
}

// AssignmentStatus is one fleet job's row in GET /v1/fleet.
type AssignmentStatus struct {
	ID         string `json:"id"`
	Scenario   string `json:"scenario"`
	Backend    string `json:"backend"`
	BackendID  string `json:"backendID"`
	RoutingKey string `json:"routingKey"`
}

// FleetStatus is the GET /v1/fleet payload.
type FleetStatus struct {
	Backends    []BackendStatus    `json:"backends"`
	Assignments []AssignmentStatus `json:"assignments,omitempty"`
}

func (rt *Router) fleetStatus(w http.ResponseWriter, r *http.Request) {
	st := FleetStatus{}
	perBackend := map[string]int{}
	rt.mu.Lock()
	for _, id := range rt.order {
		j := rt.jobs[id]
		j.mu.Lock()
		st.Assignments = append(st.Assignments, AssignmentStatus{
			ID:         j.a.ID,
			Scenario:   j.a.Request.Scenario,
			Backend:    j.a.Backend,
			BackendID:  j.a.BackendID,
			RoutingKey: j.a.RoutingKey,
		})
		perBackend[j.a.Backend]++
		j.mu.Unlock()
	}
	rt.mu.Unlock()
	for _, name := range rt.names {
		b := rt.backends[name]
		info, probed := b.Info()
		st.Backends = append(st.Backends, BackendStatus{
			Name:    name,
			URL:     b.URL,
			State:   b.State(),
			Queued:  info.Queued,
			Running: info.Running,
			Jobs:    perBackend[name],
			Probed:  probed,
		})
	}
	sort.SliceStable(st.Backends, func(i, k int) bool { return st.Backends[i].Name < st.Backends[k].Name })
	writeJSON(w, http.StatusOK, st)
}

// setBackendDrain flips a backend's operator drain bit: drained backends
// take no new jobs (routing and failover skip them) but keep serving
// their in-flight work — the zero-downtime rollout primitive. The bit is
// journaled, so a router restart mid-rollout preserves it.
func (rt *Router) setBackendDrain(w http.ResponseWriter, r *http.Request, drained bool) {
	name := r.PathValue("name")
	b := rt.backends[name]
	if b == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no backend %q", name))
		return
	}
	b.setDrain(drained)
	if rt.store != nil {
		rt.store.append(fleetEntry{Drain: &drainEntry{Backend: name, Drained: drained}})
	}
	rt.logf("fleet: backend %s drained=%v", name, drained)
	writeJSON(w, http.StatusOK, map[string]any{"backend": name, "drained": drained, "state": b.State()})
}
