package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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

	// streams is the follow policy of proxied streams: patience and
	// backoff only, since each attempt reads through the job's current
	// backend client.
	streams *service.Client

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
		streams:     &service.Client{RetryBase: 50 * time.Millisecond, RetryMax: 800 * time.Millisecond, Logf: opts.Logf},
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
	service.WriteJSON(w, code, map[string]any{"status": status, "backends": states})
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
		service.WriteError(w, http.StatusServiceUnavailable, errors.New("no live backends"))
		return
	}
	if err := rt.proxyRaw(w, r, b, "/v1/scenarios"); err != nil {
		service.WriteError(w, http.StatusBadGateway, err)
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
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding job request: %w", err))
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
				service.WriteError(w, http.StatusBadGateway, err)
				return
			}
			service.WriteJSON(w, http.StatusOK, st)
			return
		}
	}

	plan, err := req.Plan()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, sweep.ErrUnknownScenario) {
			code = http.StatusNotFound
		}
		service.WriteError(w, code, err)
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
			service.WriteError(w, http.StatusServiceUnavailable, errors.New("no routable backends"))
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
		service.WriteJSON(w, http.StatusAccepted, st)
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
		service.WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

// backendStatus fetches a fleet job's status from its current backend
// (failing over a dead one, see atJob), rewritten into the fleet ID
// namespace.
func (rt *Router) backendStatus(ctx context.Context, j *fleetJob) (*service.JobStatus, error) {
	var st *service.JobStatus
	err := rt.atJob(ctx, j, func(b *Backend, bid string) (err error) {
		if st, err = b.client.Job(ctx, bid); err != nil {
			return fmt.Errorf("backend %s: %w", b.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	st.ID = j.a.ID
	j.mu.Unlock()
	return st, nil
}

// atJob runs try against the fleet job's current backend. When try fails
// and backendFailed finds the job moved as a result, try runs once more
// at the job's new home. It returns try's last error.
func (rt *Router) atJob(ctx context.Context, j *fleetJob, try func(b *Backend, bid string) error) error {
	name, bid := j.coords()
	b := rt.backends[name]
	err := try(b, bid)
	if err == nil || ctx.Err() != nil || !rt.backendFailed(j, b, err) {
		return err
	}
	name, bid = j.coords()
	return try(rt.backends[name], bid)
}

// backendFailed handles a request to backend b, made for fleet job j,
// that failed with err. A faultpoint drop marks b dead outright; anything
// else is confirmed with a synchronous probe first, so one request hiccup
// does not fail over a live backend. A lost backend's jobs fail over at
// once, without waiting for the probe loop's threshold. It reports whether
// j now lives on another backend.
func (rt *Router) backendFailed(j *fleetJob, b *Backend, err error) (moved bool) {
	lost := errors.Is(err, errBackendDropped)
	if !lost {
		pctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
		_, _, perr := b.client.ProbeHealth(pctx)
		cancel()
		lost = perr != nil
	}
	if lost {
		if b.markDead() {
			rt.logf("fleet: backend %s dead (%v); failing over", b.Name, err)
		}
		// Re-dispatch even when the breaker was already tripped: this job
		// may have been assigned between the trip and now.
		rt.failover(b.Name)
	}
	name, _ := j.coords()
	return name != b.Name
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
// (probe-loop failover racing a stream proxy's backendFailed) collapse to
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
		service.WriteError(w, http.StatusBadGateway, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, st)
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
	service.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := rt.lookup(w, r)
	if !ok {
		return
	}
	name, bid := j.coords()
	b := rt.backends[name]
	if err := b.client.Cancel(r.Context(), bid); err != nil {
		service.WriteError(w, http.StatusBadGateway, fmt.Errorf("backend %s: %w", name, err))
		return
	}
	st, err := rt.backendStatus(r.Context(), j)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, st)
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
	if err := rt.atJob(r.Context(), j, func(b *Backend, bid string) error {
		return rt.proxyRaw(w, r, b, "/v1/jobs/"+bid+"/report")
	}); err != nil {
		service.WriteError(w, http.StatusBadGateway, err)
	}
}

// errBackendDropped marks a stream severed by the drop-backend-mid-stream
// faultpoint: the proxy must treat the backend as lost, not just resume.
var errBackendDropped = fmt.Errorf("fleet: faultpoint dropped backend connection: %w", service.ErrSevered)

// proxyStream serves a fleet job's NDJSON endpoint through the service
// client's stream follower (service.Client.Follow): every attempt reads
// from the job's current backend — wherever failover has moved it — with
// ?from=<forwarded>, each complete line is forwarded verbatim as it
// arrives, and between attempts backendFailed decides whether the backend
// is lost. The client sees one continuous byte-identical stream even when
// the backend executing the job dies mid-sweep; deterministic
// re-execution guarantees the resumed lines match what the lost backend
// would have sent.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, endpoint string) {
	j, ok := rt.lookup(w, r)
	if !ok {
		return
	}
	from, err := service.StreamFrom(r)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		service.WriteError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var b *Backend // the backend of the current attempt
	at := func() (*service.Client, string) {
		name, bid := j.coords()
		b = rt.backends[name]
		return b.client, bid
	}
	lost := func(err error) { rt.backendFailed(j, b, err) }
	err = rt.streams.Follow(r.Context(), endpoint, from, at, lost, func(line []byte) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		flusher.Flush()
		from++
		if service.Faultpoint(service.FaultSeverProxiedStream) {
			// Sever the *client's* connection after a flushed line — the
			// riding client must resume through the router via ?from=N.
			panic(http.ErrAbortHandler)
		}
		if service.Faultpoint(service.FaultDropBackendMidStream) {
			// Abandon the *backend* mid-stream and treat it as lost — the
			// in-process stand-in for a backend crash.
			return errBackendDropped
		}
		return nil
	})
	var msg string
	var je *service.JobError
	switch {
	case err == nil || r.Context().Err() != nil:
		return // complete, or the riding client is gone and resumes itself
	case errors.As(err, &je):
		// The job's own terminal trailer, re-encoded exactly as the
		// backend encodes it.
		msg = je.Msg
		if msg == "" {
			msg = fmt.Sprintf("job %s %s", r.PathValue("id"), je.State)
		}
	default:
		// A fault resumption cannot fix, or patience ran out: surface it
		// as a trailer; the riding client's own resumption takes over.
		msg = fmt.Sprintf("fleet: stream interrupted at line %d: %v", from, err)
	}
	line, _ := json.Marshal(map[string]string{"error": msg})
	_, _ = w.Write(append(line, '\n'))
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
	service.WriteJSON(w, http.StatusOK, st)
}

// setBackendDrain flips a backend's operator drain bit: drained backends
// take no new jobs (routing and failover skip them) but keep serving
// their in-flight work — the zero-downtime rollout primitive. The bit is
// journaled, so a router restart mid-rollout preserves it.
func (rt *Router) setBackendDrain(w http.ResponseWriter, r *http.Request, drained bool) {
	name := r.PathValue("name")
	b := rt.backends[name]
	if b == nil {
		service.WriteError(w, http.StatusNotFound, fmt.Errorf("no backend %q", name))
		return
	}
	b.setDrain(drained)
	if rt.store != nil {
		rt.store.append(fleetEntry{Drain: &drainEntry{Backend: name, Drained: drained}})
	}
	rt.logf("fleet: backend %s drained=%v", name, drained)
	service.WriteJSON(w, http.StatusOK, map[string]any{"backend": name, "drained": drained, "state": b.State()})
}
