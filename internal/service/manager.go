// Package service is the sweep-level service front-end: a job manager and
// an HTTP/NDJSON server over the sweep engine's wire layer
// (internal/sweep's JobRequest/CellRecord/ScenarioInfo), the step from
// "two CLIs that link the whole simulator" toward the north-star
// multi-tenant system. A job is one submitted sweep: it is planned at
// admission (invalid scenarios and filters are rejected synchronously),
// queued, executed with bounded concurrency over internal/runner's worker
// pool, and streamed as flat cell records in deterministic plan order —
// the same records the in-process path produces, bit-identically.
//
// Admission control is fed by the simulation-result cache's counters
// (simcache.Stats): a bounded queue rejects submit bursts, and when a
// byte budget is configured, sustained eviction pressure near the budget
// rejects new work instead of letting every tenant's job thrash the
// shared cache.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"gpusimpow/internal/journal"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// Options configures a Manager.
type Options struct {
	// MaxConcurrent bounds how many jobs execute at once (each job
	// additionally fans out internally over internal/runner's
	// GOMAXPROCS-sized pool). <= 0 selects 2.
	MaxConcurrent int
	// MaxQueued bounds the submitted-but-not-started queue; submissions
	// beyond it are rejected with ErrBusy. <= 0 selects 16.
	MaxQueued int
	// RetainJobs bounds how many terminal (done/failed/canceled) jobs stay
	// in the table — their records back /cells replays and /report, so
	// retention is the job-state memory bound. Oldest terminal jobs are
	// pruned first; queued and running jobs are never pruned. <= 0 keeps
	// everything.
	RetainJobs int
	// RetainAge prunes terminal jobs whose finish time is older than this,
	// independent of RetainJobs. 0 keeps everything.
	RetainAge time.Duration
	// StateDir enables the durable job store (see store.go): submissions,
	// state transitions and the ETA calibration are kept under this
	// directory, and OpenManager recovers them — terminal jobs restore
	// their state and re-derive their records on first use, queued jobs
	// re-enqueue, jobs that were running when the process died are marked
	// interrupted and re-execute. Empty keeps the jobs in memory only.
	StateDir string
}

// A job is failed once it has run longer than jobTimeoutScale times its
// EWMA-calibrated wall-clock estimate, and never sooner than
// jobTimeoutFloor: the calibrated estimate of a tiny job is milliseconds,
// and a 20x margin of milliseconds would misfire on any scheduling
// hiccup. Timeouts only engage once the ETA model has at least one
// observation — an uncalibrated daemon cannot distinguish slow from stuck.
const (
	jobTimeoutScale = 20.0
	jobTimeoutFloor = 30 * time.Second
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 2
	}
	if out.MaxQueued <= 0 {
		out.MaxQueued = 16
	}
	return out
}

// JobState is a job's lifecycle position.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	// StateInterrupted marks a job whose execution was cut short by
	// process death or a drain deadline rather than by anyone's choice:
	// it is queued for re-execution (deterministic simulation makes the
	// re-run bit-identical), so it is NOT terminal — consumers keep
	// waiting exactly as they would for a queued job.
	StateInterrupted JobState = "interrupted"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCanceled    JobState = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of one job's state.
type JobStatus struct {
	ID       string       `json:"id"`
	Scenario string       `json:"scenario"`
	Filter   sweep.Filter `json:"filter,omitempty"`
	Label    string       `json:"label,omitempty"`
	State    JobState     `json:"state"`
	Error    string       `json:"error,omitempty"`
	Cells    int          `json:"cells"`
	// TimingRuns is the plan's timing-group count — what the job will
	// actually simulate after dedup.
	TimingRuns int `json:"timingRuns"`
	// DoneCells counts streamed cells. It derives from the streamed (or
	// stored) record count alone, so a recovered job reports what it
	// reported before the restart.
	DoneCells int `json:"doneCells"`
	// ETASeconds estimates the remaining wall-clock of a running job from
	// its remaining cells (0 when unknown).
	ETASeconds float64    `json:"etaSeconds,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
}

// Job is one submitted sweep. Its progress is not state of its own: the
// plan and the count of streamed records determine every progress figure
// its status and events report.
type Job struct {
	mu   sync.Mutex
	cond *sync.Cond
	m    *Manager

	id      string
	request sweep.JobRequest
	plan    *sweep.Plan

	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time

	// records accumulates streamed cell records; the sweep's stream
	// callback is serialized in plan order, so records[i] is always the
	// cell with Index i.
	records []*sweep.CellRecord
	// count and digest (recordDigest) are all the store keeps of a
	// terminal job's records; ready is open on a recovered one until the
	// re-derivation its first reader queues settles (see awaitRecords).
	count      int
	digest     string
	ready      chan struct{}
	deriveOnce sync.Once
	failure    *DeterminismError // set when the digest check fails

	// report memoizes the scenario's reduction of the finished job, in
	// memory only: the records determine it.
	report *sweep.Report

	// idemKey is the client's Idempotency-Key ("" when none): retried
	// submissions carrying it resolve to this job instead of duplicating.
	idemKey string
	// interrupted marks a running job whose cancellation means "requeue,
	// don't fail": set by a drain deadline before canceling the context.
	interrupted bool

	cancel context.CancelFunc
}

func newJob(m *Manager, id string, req sweep.JobRequest, plan *sweep.Plan, now time.Time) *Job {
	j := &Job{m: m, id: id, request: req, plan: plan, state: StateQueued, created: now}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// ID returns the job's identity.
func (j *Job) ID() string { return j.id }

// Status snapshots the job. Its progress figures derive from the plan's
// cell count and the streamed (or stored) record count.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:         j.id,
		Scenario:   j.request.Scenario,
		Filter:     j.request.Filter,
		Label:      j.request.Label,
		State:      j.state,
		Error:      j.err,
		Cells:      len(j.plan.Cells),
		TimingRuns: j.plan.TimingRuns(),
		DoneCells:  len(j.records),
		Created:    j.created,
	}
	if j.ready != nil { // recovered, records not yet re-derived
		st.DoneCells = j.count
	}
	started := j.started
	if !started.IsZero() {
		st.Started = &started
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	j.mu.Unlock()

	if remaining := st.Cells - st.DoneCells; st.State == StateRunning && remaining > 0 {
		// Calibrated ETA first: remaining cells scaled by the manager's
		// observed seconds-per-cell EWMA — available before this job's own
		// first cell completes, once any job has fed the model. Fallback:
		// extrapolate this job's own elapsed time per done cell.
		if eta, ok := j.m.eta.estimate(remaining); ok {
			st.ETASeconds = eta
		} else if st.DoneCells > 0 {
			elapsed := time.Since(started).Seconds()
			st.ETASeconds = elapsed * float64(remaining) / float64(st.DoneCells)
		}
	}
	return st
}

// awaitRecords lets a recovered terminal job's first reader queue the
// re-derivation of its records on the workers (a closed manager abandons
// it); every reader waits for it to settle, or for ctx.
func (j *Job) awaitRecords(ctx context.Context) {
	j.mu.Lock()
	ready := j.ready
	j.mu.Unlock()
	if ready == nil {
		return
	}
	j.deriveOnce.Do(func() {
		m := j.m
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.closed {
			j.settle(nil, nil)
			return
		}
		m.rederive = append(m.rederive, j)
		m.queueCond.Signal()
	})
	select {
	case <-ready:
	case <-ctx.Done():
	}
}

// WaitCell blocks until cell i's record is available or the job reaches a
// terminal state without producing it, whichever comes first. It returns
// the record (nil once the stream is exhausted), the job's state at that
// point, and the job error ("" unless failed/canceled). The context
// bounds the wait.
func (j *Job) WaitCell(ctx context.Context, i int) (*sweep.CellRecord, JobState, string) {
	j.awaitRecords(ctx)
	// Wake waiters when the caller's context dies; cond.Wait cannot watch
	// a channel itself.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.mu.Unlock() //nolint:staticcheck // empty critical section orders the broadcast after Wait
		j.cond.Broadcast()
	})
	defer stop()

	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.records) <= i && !j.state.terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	if len(j.records) > i {
		return j.records[i], j.state, ""
	}
	if err := ctx.Err(); err != nil {
		return nil, j.state, err.Error()
	}
	return nil, j.state, j.err
}

// WaitEvent is WaitCell's progress-event analogue: it blocks until cell
// i's record is available and wraps it in the plan's structured
// sweep.Progress event (done/total counters, timing-run count) — what
// GET /v1/jobs/{id}/events streams, and what the in-process progress
// observer receives for the same cell.
func (j *Job) WaitEvent(ctx context.Context, i int) (*sweep.Progress, JobState, string) {
	rec, state, errMsg := j.WaitCell(ctx, i)
	if rec == nil {
		return nil, state, errMsg
	}
	pr := j.plan.Progress(i+1, rec)
	return &pr, state, ""
}

// Records snapshots the job's streamed cell records, in plan order.
func (j *Job) Records() []*sweep.CellRecord {
	j.awaitRecords(context.Background())
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*sweep.CellRecord(nil), j.records...)
}

// ErrNotReady marks a report request against a job that is still queued
// or running (mapped to 409: retry after the job completes).
type ErrNotReady struct{ State JobState }

func (e ErrNotReady) Error() string {
	return fmt.Sprintf("job is %s; the report needs a completed job", e.State)
}

// ErrGone marks a report request against a terminally failed or canceled
// job (mapped to 410: no report will ever exist — do not retry).
type ErrGone struct{ State JobState }

func (e ErrGone) Error() string {
	return fmt.Sprintf("job %s; no report will exist", e.State)
}

// DeterminismError fails a recovered job whose re-derived records do not
// hash to their stored digest; the job serves none of them (410).
type DeterminismError struct {
	ID, Want, Got string // the job, its stored digest, the re-derived one
}

func (e *DeterminismError) Error() string {
	return fmt.Sprintf("determinism violation: job %s stored record digest %s, re-derived %s", e.ID, e.Want, e.Got)
}

// Report reduces the finished job's cell records through the scenario
// registry's Reduce hook — the server-side counterpart of the CLI's
// in-process reduce-and-render, over the exact records the job streamed.
// The result is memoized on the job in memory (reduction is
// deterministic); a recovered job re-derives its records and reduces them
// on its first report.
func (j *Job) Report() (*sweep.Report, error) {
	j.awaitRecords(context.Background())
	j.mu.Lock()
	if j.state != StateDone {
		st, failure := j.state, j.failure
		j.mu.Unlock()
		if failure != nil {
			return nil, failure
		}
		if st.terminal() { // failed or canceled: permanently reportless
			return nil, ErrGone{State: st}
		}
		return nil, ErrNotReady{State: st}
	}
	if len(j.records) < j.count { // the manager closed before re-deriving them
		j.mu.Unlock()
		return nil, fmt.Errorf("service: job %s records not re-derived: %w", j.id, ErrDraining)
	}
	if j.report != nil {
		rep := j.report
		j.mu.Unlock()
		return rep, nil
	}
	recs := append([]*sweep.CellRecord(nil), j.records...)
	req := j.request
	j.mu.Unlock()

	// A journaled job can outlive its scenario's registration (a daemon
	// restarted on a build without it): mapped to 404.
	sc, ok := sweep.Lookup(req.Scenario)
	if !ok {
		return nil, fmt.Errorf("service: %w %q", sweep.ErrUnknownScenario, req.Scenario)
	}
	// Reducers are scenario-author code running inside the daemon: contain
	// their panics to this one request (the job itself stays done — a
	// report bug must not poison a finished sweep, let alone the process).
	rep, err := func() (rep *sweep.Report, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: reduce panicked: %v\n%s", r, debug.Stack())
			}
		}()
		if faultpoint(FaultPanicInReduce) {
			panic("faultpoint " + FaultPanicInReduce)
		}
		return sc.Reduce(recs, req.Filter)
	}()
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.report = rep
	j.mu.Unlock()
	return rep, nil
}

// ErrBusy is returned (and mapped to 429 + Retry-After) when admission
// control rejects a submission; the service is healthy, just saturated —
// the client should back off and retry the identical request.
type ErrBusy struct{ Reason string }

func (e ErrBusy) Error() string { return "service busy: " + e.Reason }

// ErrDraining is returned (and mapped to 503 + Retry-After) while the
// manager is shutting down gracefully: no new work is admitted, but a
// replacement process may accept the retry.
var ErrDraining = errors.New("service draining: not accepting new jobs")

// Manager owns the job table, the admission policy, the worker pool and
// (when Options.StateDir is set) the durable job store.
type Manager struct {
	opts Options

	// eta calibrates per-cell wall-clock across all jobs (see eta.go).
	eta etaModel

	// store is the durable journal+snapshot (nil without StateDir).
	store *journal.Log

	ctx  context.Context // bounds re-derivations; Close and an expired drain stop it
	stop context.CancelFunc

	// timeoutFloor is jobTimeoutFloor; tests lower it to force a timeout.
	timeoutFloor time.Duration

	mu            sync.Mutex
	jobs          map[string]*Job
	idem          map[string]string // Idempotency-Key -> job ID
	order         []string          // creation order, for listings
	nextID        int
	runningCount  int
	lastEvictions uint64
	draining      bool
	closed        bool

	// pending is the submitted-but-not-started FIFO; workers pop from the
	// front, Cancel removes a job outright (immediately freeing its
	// admission slot), queueCond is signaled on enqueue and Close.
	pending   []*Job
	queueCond *sync.Cond
	rederive  []*Job // recovered jobs a reader awaits; popped first, even draining

	wg sync.WaitGroup
}

// NewManager starts a manager and its workers; it panics if the durable
// store cannot be opened (use OpenManager to handle that error).
func NewManager(opts Options) *Manager {
	m, err := OpenManager(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// OpenManager starts a manager and its workers. With Options.StateDir
// set, it opens the durable job store, recovers every persisted job —
// terminal jobs restore, their records re-derived on first use, queued
// jobs re-enqueue in submit order, jobs caught running by the crash
// requeue as interrupted — restores the ETA calibration, and compacts the
// recovered state into a fresh snapshot before accepting new work.
func OpenManager(opts Options) (*Manager, error) {
	o := opts.withDefaults()
	m := &Manager{
		opts:         o,
		timeoutFloor: jobTimeoutFloor,
		jobs:         make(map[string]*Job),
		idem:         make(map[string]string),
	}
	m.queueCond = sync.NewCond(&m.mu)
	m.ctx, m.stop = context.WithCancel(context.Background())
	if o.StateDir != "" {
		st, err := openStore(o.StateDir)
		if err != nil {
			return nil, err
		}
		m.store = st
		m.recoverFrom(recoverStore(st))
		// Fold the recovered state (including interrupted-state rewrites
		// and any torn journal tail) into a clean snapshot + empty journal.
		st.Compact(m.snapshot())
	}
	m.wg.Add(o.MaxConcurrent)
	for i := 0; i < o.MaxConcurrent; i++ {
		go m.worker()
	}
	return m, nil
}

// recoverFrom rebuilds the job table from the store's recovered state.
// Runs before the workers start, so no locking is needed. A stored job
// that no longer plans (scenario unregistered, filter invalid after
// version skew) is dropped — recovery skips, never crashes.
func (m *Manager) recoverFrom(rs *recoveredState) {
	m.nextID = rs.NextID
	if rs.ETA != nil {
		m.eta.restore(rs.ETA.SecPerCell, rs.ETA.Samples)
	}
	for _, sj := range rs.Jobs {
		plan, err := sj.Request.Plan()
		if err != nil {
			continue
		}
		j := newJob(m, sj.ID, sj.Request, plan, sj.Created)
		j.idemKey = sj.Key
		if sj.Started != nil {
			j.started = *sj.Started
		}
		switch {
		case sj.State.terminal():
			j.state = sj.State
			j.err = sj.Error
			if sj.Finished != nil {
				j.finished = *sj.Finished
			}
			j.count, j.digest = sj.Count, sj.Digest
			if sj.Count > 0 {
				j.ready = make(chan struct{}) // re-derived on first use
			}
		case sj.State == StateQueued:
			m.pending = append(m.pending, j)
		default:
			// Running or already interrupted when the process died:
			// deterministic re-execution is bit-identical, so partial
			// records are discarded and the job re-runs from scratch.
			j.state = StateInterrupted
			m.pending = append(m.pending, j)
		}
		m.jobs[sj.ID] = j
		m.order = append(m.order, sj.ID)
		if sj.Key != "" {
			m.idem[sj.Key] = sj.ID
		}
	}
}

// snapshot captures the full persistent state for compaction.
func (m *Manager) snapshot() *snapshotFile {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	nextID := m.nextID
	m.mu.Unlock()
	snap := &snapshotFile{Version: storeVersion, NextID: nextID}
	if sec, n := m.eta.export(); n > 0 {
		snap.ETA = &etaEntry{SecPerCell: sec, Samples: n}
	}
	for _, j := range jobs {
		snap.Jobs = append(snap.Jobs, j.stored())
	}
	return snap
}

// stored snapshots one job into its persisted form.
func (j *Job) stored() *storedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	sj := &storedJob{
		ID:      j.id,
		Request: j.request,
		Key:     j.idemKey,
		State:   j.state,
		Error:   j.err,
		Created: j.created,
		Count:   j.count,
		Digest:  j.digest,
	}
	// A job snapshotted mid-run persists as interrupted: if this snapshot
	// is the one a restart recovers, the run it describes is already dead.
	if sj.State == StateRunning {
		sj.State = StateInterrupted
		sj.Error = ""
	}
	if !j.started.IsZero() {
		t := j.started
		sj.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		sj.Finished = &t
	}
	return sj
}

// journal appends one entry to the durable store, if any.
func (m *Manager) journal(e journalEntry) {
	if m.store != nil {
		m.store.Append(e)
	}
}

// Close stops accepting jobs immediately, cancels everything queued or
// running, waits for the workers, and persists whatever state results
// (use Shutdown for a graceful drain that keeps queued work alive).
// Idempotent, including after Shutdown.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.queueCond.Broadcast()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		m.cancelJob(j)
	}
	m.finish()
}

// finish stops the re-derivations, waits for the closed manager's workers,
// abandons the re-derivations none ran, and persists the final state.
func (m *Manager) finish() {
	m.stop()
	m.wg.Wait()
	for _, j := range m.rederive { // closed: nothing appends any more
		j.settle(nil, nil)
	}
	if m.store != nil {
		m.store.Compact(m.snapshot())
		m.store.Close()
	}
}

// cachePressure is the fraction of the simulation cache's byte budget at
// or above which rising eviction counts reject new jobs.
const cachePressure = 0.9

// admissionError applies the admission policy to one snapshot of the
// world; a pure function so the policy is unit-testable without staging
// real load. queued is the submitted-but-not-started depth, running the
// currently-executing job count.
func admissionError(st simcache.Stats, queued, running int, lastEvictions uint64, opts Options) error {
	if queued >= opts.MaxQueued {
		return ErrBusy{Reason: fmt.Sprintf("job queue full (%d queued)", queued)}
	}
	// Cache-pressure rejection: only meaningful when a byte budget bounds
	// the shared timing cache. Near-budget occupancy alone is fine (a full
	// cache is a good cache); it is occupancy combined with *rising*
	// evictions — the cache is discarding entries jobs still want — that
	// marks thrashing, where admitting more work degrades every tenant.
	// Both conditions only mean anything while jobs are actually in
	// flight: on an idle daemon the eviction delta is leftover history
	// from jobs long finished, and admitting the lone new job cannot
	// degrade anyone.
	if queued+running > 0 && st.BudgetBytes > 0 &&
		float64(st.Bytes) >= cachePressure*float64(st.BudgetBytes) &&
		st.Evictions > lastEvictions {
		return ErrBusy{Reason: fmt.Sprintf(
			"simulation cache thrashing (%d/%d bytes, %d evictions)",
			st.Bytes, st.BudgetBytes, st.Evictions)}
	}
	return nil
}

// Submit validates, plans and enqueues one job request. Unknown
// scenarios, non-sweep scenarios and invalid filters fail here,
// synchronously; admission rejections return ErrBusy, a draining or
// closed manager ErrDraining.
func (m *Manager) Submit(req sweep.JobRequest) (*Job, error) {
	j, _, err := m.SubmitIdempotent(req, "")
	return j, err
}

// SubmitIdempotent is Submit with an optional client-chosen idempotency
// key: a key that already named a submission returns that job with
// replayed=true instead of enqueuing a duplicate — the contract that
// makes client-side submit retries safe (the first attempt's response may
// have been lost after the server processed it). Keys survive restarts
// (they are journaled with the job) and are forgotten when the job is
// pruned.
func (m *Manager) SubmitIdempotent(req sweep.JobRequest, key string) (j *Job, replayed bool, err error) {
	plan, err := req.Plan()
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	if key != "" {
		if id, ok := m.idem[key]; ok {
			if prev := m.jobs[id]; prev != nil {
				m.mu.Unlock()
				return prev, true, nil
			}
		}
	}
	if m.closed || m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	st := simcache.Default().Stats()
	if err := admissionError(st, len(m.pending), m.runningCount, m.lastEvictions, m.opts); err != nil {
		m.lastEvictions = st.Evictions
		m.mu.Unlock()
		return nil, false, err
	}
	m.lastEvictions = st.Evictions
	m.nextID++
	id := fmt.Sprintf("job-%d", m.nextID)
	j = newJob(m, id, req, plan, time.Now())
	j.idemKey = key
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.pending = append(m.pending, j)
	if key != "" {
		m.idem[key] = id
	}
	// Journaled before a worker can see the job: it precedes every entry.
	m.journal(journalEntry{Submit: j.stored()})
	m.queueCond.Signal()
	m.mu.Unlock()
	// Age-based retention advances on submissions too, so an idle daemon
	// sheds stale terminal jobs on its next contact.
	m.prune()
	return j, false, nil
}

// prune applies the retention policy: terminal jobs beyond RetainJobs
// (newest kept) or finished longer than RetainAge ago leave the table.
// Queued and running jobs always stay. Call with no locks held.
func (m *Manager) prune() {
	if m.opts.RetainJobs <= 0 && m.opts.RetainAge <= 0 {
		return
	}
	now := time.Now()
	m.mu.Lock()
	kept := make([]string, 0, len(m.order))
	var evicted []string
	terminal := 0
	for i := len(m.order) - 1; i >= 0; i-- { // newest first
		id := m.order[i]
		j := m.jobs[id]
		j.mu.Lock()
		isTerminal := j.state.terminal()
		finished := j.finished
		j.mu.Unlock()
		evict := false
		if isTerminal {
			terminal++
			if m.opts.RetainJobs > 0 && terminal > m.opts.RetainJobs {
				evict = true
			}
			if m.opts.RetainAge > 0 && now.Sub(finished) > m.opts.RetainAge {
				evict = true
			}
		}
		if evict {
			delete(m.jobs, id)
			if j.idemKey != "" {
				delete(m.idem, j.idemKey)
			}
			evicted = append(evicted, id)
		} else {
			kept = append(kept, id)
		}
	}
	// kept is newest-first; restore creation order.
	for l, r := 0, len(kept)-1; l < r; l, r = l+1, r-1 {
		kept[l], kept[r] = kept[r], kept[l]
	}
	m.order = kept
	m.mu.Unlock()
	// Evictions shrink durable state too: journal the removals, then fold
	// everything into a fresh snapshot so the records/reports of pruned
	// jobs actually leave the disk (-retain/-retain-age bound the store's
	// footprint, not just the table's).
	if len(evicted) > 0 && m.store != nil {
		for _, id := range evicted {
			m.journal(journalEntry{Forget: &forgetEntry{ID: id}})
		}
		m.store.Compact(m.snapshot())
	}
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists every job in creation order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Statuses lists every job's status in creation order (Jobs already
// walks m.order, which is appended at submit time).
func (m *Manager) Statuses() []JobStatus {
	jobs := m.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels a job: queued jobs are marked canceled and skipped by
// the workers; running jobs have their context canceled and stop at the
// next cell boundary. Canceling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Job(id)
	if !ok {
		return fmt.Errorf("service: no job %q", id)
	}
	m.cancelJob(j)
	return nil
}

func (m *Manager) cancelJob(j *Job) {
	defer m.prune() // a queued job canceled here turns terminal
	// Remove the job from the pending queue first (freeing its admission
	// slot on the spot); m.mu strictly before j.mu, matching the worker.
	m.mu.Lock()
	for i, p := range m.pending {
		if p == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.mu.Unlock()

	j.mu.Lock()
	switch j.state {
	case StateQueued, StateInterrupted:
		j.state = StateCanceled
		j.err = "canceled before start"
		j.finished = time.Now()
		finished := j.finished
		j.cond.Broadcast()
		j.mu.Unlock()
		m.journal(journalEntry{State: &stateEntry{
			ID: j.id, State: StateCanceled, Error: "canceled before start", At: finished,
		}})
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
}

// worker pops re-derivations, then pending jobs, until Close; while
// draining it pops no pending job, so queued jobs persist for the next
// process instead of racing the shutdown deadline.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closed && len(m.rederive) == 0 && (m.draining || len(m.pending) == 0) {
			m.queueCond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		run := m.runJob
		var j *Job
		if len(m.rederive) > 0 {
			j, m.rederive = m.rederive[0], m.rederive[1:]
			run = m.rederiveJob
		} else {
			j, m.pending = m.pending[0], m.pending[1:]
		}
		m.runningCount++
		m.mu.Unlock()
		run(j)
		m.mu.Lock()
		m.runningCount--
		m.mu.Unlock()
	}
}

// runJob executes one job end to end.
func (m *Manager) runJob(j *Job) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued && j.state != StateInterrupted {
		j.mu.Unlock() // canceled between pop and start
		return
	}
	// An interrupted job re-executes from scratch: the determinism contract
	// makes the fresh stream bit-identical to the one the crash cut short,
	// so partial progress is worthless and dropped.
	j.state = StateRunning
	j.started = time.Now()
	j.err = ""
	j.records = nil
	j.report = nil
	j.interrupted = false
	j.cancel = cancel
	started := j.started
	j.mu.Unlock()
	m.journal(journalEntry{State: &stateEntry{ID: j.id, State: StateRunning, At: started}})

	// Wall-clock timeout, derived from the calibrated ETA of the job's
	// whole cell count: a job that has run jobTimeoutScale times its
	// estimate is stuck, not slow.
	ctx := parent
	if est, ok := m.eta.estimate(len(j.plan.Cells)); ok {
		d := time.Duration(jobTimeoutScale * est * float64(time.Second))
		if d < m.timeoutFloor {
			d = m.timeoutFloor
		}
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(parent, d)
		defer tcancel()
	}

	// Stream callbacks arrive serialized in plan order, so the wall-clock
	// between consecutive callbacks is the pipeline's per-cell throughput —
	// the sample the ETA calibration wants.
	lastEmit := time.Now()
	err := j.run(ctx, func(cr *sweep.CellResult) {
		rec := j.plan.Record(cr)
		now := time.Now()
		m.eta.observe(now.Sub(lastEmit).Seconds())
		j.mu.Lock()
		j.records = append(j.records, rec)
		lastEmit = now
		j.cond.Broadcast()
		j.mu.Unlock()
		if faultpoint(FaultCrashAfterRecord) {
			fmt.Fprintln(os.Stderr, "gpowd: faultpoint crash-after-record: dying")
			os.Exit(137)
		}
	})

	j.mu.Lock()
	switch {
	case err == nil:
		j.finished = time.Now()
		j.state = StateDone
	case j.interrupted:
		// A drain deadline cut this run short: not a failure, not a
		// cancellation — the job requeues (here in state only; the next
		// process's recovery re-enqueues it) for bit-identical re-execution.
		j.state = StateInterrupted
		j.err = ""
	case ctx.Err() == context.DeadlineExceeded:
		j.finished = time.Now()
		j.state = StateFailed
		j.err = fmt.Sprintf("timed out (exceeded %.0fx the calibrated estimate)", jobTimeoutScale)
	case parent.Err() != nil:
		j.finished = time.Now()
		j.state = StateCanceled
		j.err = "canceled"
	default:
		j.finished = time.Now()
		j.state = StateFailed
		j.err = err.Error()
	}
	e := &stateEntry{ID: j.id, State: j.state, Error: j.err, At: j.finished}
	if j.state.terminal() {
		j.count = len(j.records)
		if m.store != nil {
			j.digest = recordDigest(j.records)
		}
		e.Count, e.Digest = j.count, j.digest
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	m.journal(journalEntry{State: e})
	m.prune()
}

// run runs the job's plan under a recover: a panicking scenario on this
// goroutine fails the run with the stack in its error, never the daemon
// (panics on the runner pool's goroutines surface as a *runner.PanicError
// return instead).
func (j *Job) run(ctx context.Context, emit func(*sweep.CellResult)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	_, err = j.plan.RunContext(ctx, emit)
	return err
}

// rederiveJob re-runs a recovered terminal job's plan up to its stored
// record count (the first records of any run are deterministic in plan
// order, so done, failed and canceled jobs alike) and publishes them only
// if they hash to the stored digest; otherwise the job fails with a
// *DeterminismError. It journals nothing; a canceled m.ctx abandons it.
func (m *Manager) rederiveJob(j *Job) {
	n, want := j.count, j.digest // fixed since recovery
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	var recs []*sweep.CellRecord
	_ = j.run(ctx, func(cr *sweep.CellResult) { // a run cut short fails the digest check
		if len(recs) < n {
			if recs = append(recs, j.plan.Record(cr)); len(recs) == n {
				cancel() // the stored stream ends here
			}
		}
	})
	var derr *DeterminismError
	if got := recordDigest(recs); got != want {
		recs = nil
		if m.ctx.Err() == nil { // not abandoned: a real mismatch
			derr = &DeterminismError{ID: j.id, Want: want, Got: got}
		}
	}
	j.settle(recs, derr)
}

// settle publishes a recovered job's re-derived records (none when
// abandoned) or fails the job with derr, and wakes its readers.
func (j *Job) settle(recs []*sweep.CellRecord, derr *DeterminismError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if derr != nil {
		j.state, j.err, j.failure = StateFailed, derr.Error(), derr
	}
	j.records = recs
	close(j.ready)
	j.ready = nil
}

// interrupt cancels a running job while marking the cancellation as
// "requeue for re-execution, don't fail" — what a drain deadline means.
func (j *Job) interrupt() {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	j.interrupted = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// HealthInfo is the enriched GET /v1/healthz body: enough signal for a
// fleet router to score backends (load, cache heat, drain state) instead
// of treating health as a boolean. The bare 200/503 status-code contract
// is unchanged — existing checks that only look at the code keep working.
type HealthInfo struct {
	Status   string         `json:"status"` // "ok", "draining", "closed"
	Draining bool           `json:"draining,omitempty"`
	Queued   int            `json:"queued"`  // submitted but not started
	Running  int            `json:"running"` // currently executing
	Jobs     int            `json:"jobs"`    // total retained (incl. terminal)
	Cache    simcache.Stats `json:"cache"`   // process-wide simcache counters
}

// HealthInfo returns the GET /v1/healthz payload; ok (the 200 case) holds
// until the manager drains or closes.
func (m *Manager) HealthInfo() (HealthInfo, bool) {
	m.mu.Lock()
	hi := HealthInfo{
		Status:  "ok",
		Queued:  len(m.pending),
		Running: m.runningCount,
		Jobs:    len(m.jobs),
	}
	switch {
	case m.closed:
		hi.Status = "closed"
	case m.draining:
		hi.Status = "draining"
	}
	m.mu.Unlock()
	hi.Draining = hi.Status != "ok"
	hi.Cache = simcache.Default().Stats()
	return hi, !hi.Draining
}

// Shutdown drains the manager gracefully: new submissions are rejected
// with ErrDraining, queued jobs stay queued (persisted for the next
// process), and running jobs get until ctx expires to finish — then they
// are interrupted, checkpointed as such, and will re-execute on recovery.
// Finally all state is folded into a fresh snapshot and the store closed.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	if m.closed || m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	m.queueCond.Broadcast() // idle workers re-check and park
	m.mu.Unlock()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	interrupted := false
	for {
		m.mu.Lock()
		running := m.runningCount
		m.mu.Unlock()
		if running == 0 {
			break
		}
		if ctx.Err() != nil && !interrupted {
			interrupted = true
			m.stop()
			for _, j := range m.Jobs() {
				j.interrupt()
			}
		}
		<-tick.C
	}

	m.mu.Lock()
	m.closed = true
	m.queueCond.Broadcast()
	m.mu.Unlock()
	m.finish()
}
