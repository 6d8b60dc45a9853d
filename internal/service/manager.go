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
	"runtime/debug"
	"sync"
	"time"

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
	// CachePressure is the fraction of the simulation cache's byte budget
	// above which rising eviction counts reject new jobs (0 selects 0.9).
	// Irrelevant when no byte budget is configured.
	CachePressure float64
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
	// state transitions, cell records, reports and the ETA calibration are
	// journaled under this directory, and OpenManager recovers them —
	// terminal jobs restore intact, queued jobs re-enqueue, jobs that were
	// running when the process died are marked interrupted and re-execute.
	// Empty keeps the PR-4 in-memory-only behavior.
	StateDir string
	// JobTimeoutScale scales the EWMA-calibrated wall-clock estimate of a
	// job into its timeout: a job is failed once it has run longer than
	// Scale x its calibrated estimate (never less than JobTimeoutFloor).
	// Timeouts only engage once the ETA model has at least one
	// observation — an uncalibrated daemon cannot distinguish slow from
	// stuck. 0 selects 20; negative disables timeouts.
	JobTimeoutScale float64
	// JobTimeoutFloor is the minimum per-job timeout (0 selects 30s) —
	// the calibrated estimate of a tiny job is milliseconds, and a 20x
	// margin of milliseconds would misfire on any scheduling hiccup.
	JobTimeoutFloor time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 2
	}
	if out.MaxQueued <= 0 {
		out.MaxQueued = 16
	}
	if out.CachePressure <= 0 {
		out.CachePressure = 0.9
	}
	if out.JobTimeoutScale == 0 {
		out.JobTimeoutScale = 20
	}
	if out.JobTimeoutFloor <= 0 {
		out.JobTimeoutFloor = 30 * time.Second
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
	// EstCycles is the plan's static cost estimate (see sweep.Plan.Cost).
	EstCycles uint64 `json:"estCycles,omitempty"`
	// DoneCells counts streamed cells; CostFraction is their cost-weighted
	// share of the whole plan.
	DoneCells    int     `json:"doneCells"`
	CostFraction float64 `json:"costFraction,omitempty"`
	// ETASeconds extrapolates the remaining wall-clock from elapsed time
	// and CostFraction while the job runs (0 when unknown).
	ETASeconds float64    `json:"etaSeconds,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
}

// Job is one submitted sweep.
type Job struct {
	mu   sync.Mutex
	cond *sync.Cond

	id      string
	request sweep.JobRequest
	plan    *sweep.Plan
	// cost is filled by the worker just before execution (estimation
	// builds workload instances — too heavy for the submit path); nil
	// while queued.
	cost *sweep.Cost

	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time

	// records accumulates streamed cell records; the sweep's stream
	// callback is serialized in plan order, so records[i] is always the
	// cell with Index i. fractions[i] is the cost-weighted completion
	// fraction after cell i (what the events stream reports).
	records   []*sweep.CellRecord
	fractions []float64
	costDone  float64

	// report memoizes the scenario's reduction of the finished job.
	report *sweep.Report

	// eta is the manager's shared wall-clock calibration.
	eta *etaModel

	// store is the manager's durable store (nil without one); the job
	// journals its own memoized report through it.
	store *Store

	// idemKey is the client's Idempotency-Key ("" when none): retried
	// submissions carrying it resolve to this job instead of duplicating.
	idemKey string
	// interrupted marks a running job whose cancellation means "requeue,
	// don't fail": set by a drain deadline before canceling the context.
	interrupted bool

	cancel context.CancelFunc
}

func newJob(id string, req sweep.JobRequest, plan *sweep.Plan, eta *etaModel, now time.Time) *Job {
	j := &Job{id: id, request: req, plan: plan, eta: eta, state: StateQueued, created: now}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// ID returns the job's identity.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:           j.id,
		Scenario:     j.request.Scenario,
		Filter:       j.request.Filter,
		Label:        j.request.Label,
		State:        j.state,
		Error:        j.err,
		Cells:        len(j.plan.Cells),
		TimingRuns:   j.plan.TimingRuns(),
		DoneCells:    len(j.records),
		CostFraction: j.costDone,
		Created:      j.created,
	}
	if j.cost != nil {
		st.EstCycles = j.cost.EstCycles
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == StateRunning && j.costDone < 1 {
		// Calibrated ETA first: remaining cost units scaled by the
		// manager's observed seconds-per-unit EWMA — available before this
		// job's own first cell completes, once any job has fed the model.
		// Fallback: extrapolate this job's own elapsed/progress ratio.
		calibrated := false
		if j.cost != nil && j.eta != nil {
			remaining := (1 - j.costDone) * float64(j.cost.EstCycles)
			if eta, ok := j.eta.estimate(remaining); ok {
				st.ETASeconds = eta
				calibrated = true
			}
		}
		if !calibrated && j.costDone > 0 {
			elapsed := time.Since(j.started).Seconds()
			st.ETASeconds = elapsed * (1 - j.costDone) / j.costDone
		}
	}
	return st
}

// WaitCell blocks until cell i's record is available or the job reaches a
// terminal state without producing it, whichever comes first. It returns
// the record (nil once the stream is exhausted), the job's state at that
// point, and the job error ("" unless failed/canceled). The context
// bounds the wait.
func (j *Job) WaitCell(ctx context.Context, i int) (*sweep.CellRecord, JobState, string) {
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
// i's record is available and wraps it in a structured sweep.Progress
// event (done/total counters, timing-run count, cost-weighted completion
// fraction) — what GET /v1/jobs/{id}/events streams.
func (j *Job) WaitEvent(ctx context.Context, i int) (*sweep.Progress, JobState, string) {
	rec, state, errMsg := j.WaitCell(ctx, i)
	if rec == nil {
		return nil, state, errMsg
	}
	pr := &sweep.Progress{
		Scenario:   j.request.Scenario,
		Done:       i + 1,
		Total:      len(j.plan.Cells),
		TimingRuns: j.plan.TimingRuns(),
		Cell:       rec,
	}
	j.mu.Lock()
	if i < len(j.fractions) {
		pr.CostFraction = j.fractions[i]
	}
	j.mu.Unlock()
	return pr, state, ""
}

// Records snapshots the job's streamed cell records, in plan order.
func (j *Job) Records() []*sweep.CellRecord {
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

// Report reduces the finished job's cell records through the scenario
// registry's Reduce hook — the server-side counterpart of the CLI's
// in-process reduce-and-render, over the exact records the job streamed.
// The result is memoized on the job (reduction is deterministic).
func (j *Job) Report() (*sweep.Report, error) {
	j.mu.Lock()
	if j.state != StateDone {
		st := j.state
		j.mu.Unlock()
		if st.terminal() { // failed or canceled: permanently reportless
			return nil, ErrGone{State: st}
		}
		return nil, ErrNotReady{State: st}
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
	store := j.store
	j.mu.Unlock()
	if store != nil {
		store.append(journalEntry{Report: &reportEntry{ID: j.id, Report: rep}})
	}
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

	// eta calibrates cost-unit wall-clock across all jobs (see eta.go).
	eta etaModel

	// store is the durable journal+snapshot (nil without StateDir).
	store *Store

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
// terminal jobs restore with their records and reports, queued jobs
// re-enqueue in submit order, jobs caught running by the crash requeue as
// interrupted — restores the ETA calibration, and compacts the recovered
// state into a fresh snapshot before accepting new work.
func OpenManager(opts Options) (*Manager, error) {
	o := opts.withDefaults()
	m := &Manager{
		opts: o,
		jobs: make(map[string]*Job),
		idem: make(map[string]string),
	}
	m.queueCond = sync.NewCond(&m.mu)
	if o.StateDir != "" {
		st, err := openStore(o.StateDir)
		if err != nil {
			return nil, err
		}
		m.store = st
		m.recoverFrom(st.recover())
		// Fold the recovered state (including interrupted-state rewrites
		// and any torn journal tail) into a clean snapshot + empty journal.
		st.compact(m.snapshot())
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
		m.eta.restore(rs.ETA.SecPerUnit, rs.ETA.Samples)
	}
	for _, sj := range rs.Jobs {
		plan, err := sj.Request.Plan()
		if err != nil {
			continue
		}
		j := newJob(sj.ID, sj.Request, plan, &m.eta, sj.Created)
		j.idemKey = sj.Key
		j.store = m.store
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
			// A terminal job's records must be the complete plan-order
			// stream; a gap means the journal lied (torn entries between
			// intact ones cannot happen, but a forged/edited journal can) —
			// demote to interrupted and re-execute rather than serve holes.
			complete := len(sj.Records) == len(plan.Cells)
			for _, r := range sj.Records {
				if r == nil {
					complete = false
				}
			}
			if sj.State == StateDone && !complete {
				j.state = StateInterrupted
				j.err = ""
				j.finished = time.Time{}
				m.pending = append(m.pending, j)
				break
			}
			j.records = sj.Records
			j.report = sj.Report
			if sj.State == StateDone {
				j.costDone = 1
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
		snap.ETA = &etaEntry{SecPerUnit: sec, Samples: n}
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
	if j.state.terminal() {
		sj.Records = append([]*sweep.CellRecord(nil), j.records...)
		sj.Report = j.report
	}
	return sj
}

// journal appends one entry to the durable store, if any.
func (m *Manager) journal(e journalEntry) {
	if m.store != nil {
		m.store.append(e)
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
	m.wg.Wait()
	if m.store != nil {
		m.store.compact(m.snapshot())
		m.store.close()
	}
}

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
		float64(st.Bytes) >= opts.CachePressure*float64(st.BudgetBytes) &&
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
	j = newJob(id, req, plan, &m.eta, time.Now())
	j.idemKey = key
	j.store = m.store
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.pending = append(m.pending, j)
	if key != "" {
		m.idem[key] = id
	}
	m.queueCond.Signal()
	m.mu.Unlock()
	m.journal(journalEntry{Submit: j.stored()})
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
		m.store.compact(m.snapshot())
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

// worker pops pending jobs until Close; while draining it pops nothing,
// so queued jobs persist for the next process instead of racing the
// shutdown deadline.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closed && (m.draining || len(m.pending) == 0) {
			m.queueCond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.runningCount++
		m.mu.Unlock()
		m.runJob(j)
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
	j.fractions = nil
	j.costDone = 0
	j.report = nil
	j.interrupted = false
	j.cancel = cancel
	started := j.started
	j.mu.Unlock()
	m.journal(journalEntry{State: &stateEntry{ID: j.id, State: StateRunning, At: started}})

	// Cost estimation builds workload instances, so it runs on the worker
	// rather than in the submit path; best effort — a plan that executes
	// can still fail to estimate, which only costs the progress fractions.
	// Builds are scenario-author code: contain their panics (estimation
	// runs inline on this worker goroutine, outside the runner pool's own
	// panic conversion).
	cost, costErr := func() (c *sweep.Cost, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("cost estimation panicked: %v", r)
			}
		}()
		return j.plan.Cost()
	}()
	if costErr == nil {
		j.mu.Lock()
		j.cost = cost
		j.mu.Unlock()
	}

	// Wall-clock timeout, derived from the calibrated ETA: a job that has
	// run JobTimeoutScale times its estimate is stuck, not slow. Only
	// engages once the EWMA has absorbed at least one observation — an
	// uncalibrated daemon cannot tell the difference.
	ctx := parent
	if m.opts.JobTimeoutScale > 0 && cost != nil {
		if est, ok := m.eta.estimate(float64(cost.EstCycles)); ok {
			d := time.Duration(m.opts.JobTimeoutScale * est * float64(time.Second))
			if d < m.opts.JobTimeoutFloor {
				d = m.opts.JobTimeoutFloor
			}
			var tcancel context.CancelFunc
			ctx, tcancel = context.WithTimeout(parent, d)
			defer tcancel()
		}
	}

	// Stream callbacks arrive serialized in plan order, so the wall-clock
	// between consecutive callbacks is the pipeline's per-cell throughput —
	// the sample the ETA calibration wants. The whole execution runs under
	// a recover: a panicking scenario on this goroutine fails this job with
	// the stack in its error, never the daemon (panics on the runner pool's
	// goroutines surface as a *runner.PanicError return instead).
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
			}
		}()
		lastEmit := time.Now()
		_, err = j.plan.RunContext(ctx, func(cr *sweep.CellResult) {
			rec := j.plan.Record(cr)
			now := time.Now()
			j.mu.Lock()
			j.records = append(j.records, rec)
			if j.cost != nil {
				j.costDone += j.cost.PerCell[rec.Index]
				m.eta.observe(j.cost.PerCell[rec.Index]*float64(j.cost.EstCycles), now.Sub(lastEmit).Seconds())
			}
			j.fractions = append(j.fractions, j.costDone)
			lastEmit = now
			j.cond.Broadcast()
			j.mu.Unlock()
			m.journal(journalEntry{Cell: &cellEntry{ID: j.id, Record: rec}})
		})
		return err
	}()

	j.mu.Lock()
	switch {
	case err == nil:
		j.finished = time.Now()
		j.state = StateDone
		j.costDone = 1
	case j.interrupted:
		// A drain deadline cut this run short: not a failure, not a
		// cancellation — the job requeues (here in state only; the next
		// process's recovery re-enqueues it) for bit-identical re-execution.
		j.state = StateInterrupted
		j.err = ""
	case ctx.Err() == context.DeadlineExceeded:
		j.finished = time.Now()
		j.state = StateFailed
		j.err = fmt.Sprintf("timed out (exceeded %.0fx the calibrated estimate)", m.opts.JobTimeoutScale)
	case parent.Err() != nil:
		j.finished = time.Now()
		j.state = StateCanceled
		j.err = "canceled"
	default:
		j.finished = time.Now()
		j.state = StateFailed
		j.err = err.Error()
	}
	state, errMsg, finished := j.state, j.err, j.finished
	j.cond.Broadcast()
	j.mu.Unlock()
	m.journal(journalEntry{State: &stateEntry{ID: j.id, State: state, Error: errMsg, At: finished}})
	m.prune()
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

// Health reports the manager's liveness for GET /v1/healthz: ok until
// draining or closed.
func (m *Manager) Health() (state string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.closed:
		return "closed", false
	case m.draining:
		return "draining", false
	}
	return "ok", true
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

// HealthInfo returns the enriched health payload; ok mirrors Health().
func (m *Manager) HealthInfo() (HealthInfo, bool) {
	state, ok := m.Health()
	m.mu.Lock()
	hi := HealthInfo{
		Status:   state,
		Draining: state != "ok",
		Queued:   len(m.pending),
		Running:  m.runningCount,
		Jobs:     len(m.jobs),
	}
	m.mu.Unlock()
	hi.Cache = simcache.Default().Stats()
	return hi, ok
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
	m.wg.Wait()
	if m.store != nil {
		m.store.compact(m.snapshot())
		m.store.close()
	}
}
