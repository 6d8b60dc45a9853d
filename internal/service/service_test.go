package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/config"
	_ "gpusimpow/internal/experiments" // registers every scenario
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// svcBuilds counts every svcblock workload build, armed or not.
var svcBuilds atomic.Int32

// blockGate makes svcblock's workload builds block while armed — giving
// the cancel test a job that is deterministically "running" for as long
// as it needs. Unarmed (everywhere else) builds return instantly.
// Re-armable, so the package is safe under -count=N.
var (
	blockBuilds atomic.Int32
	blockGate   struct {
		mu sync.Mutex
		ch chan struct{}
	}
)

// blockArm installs a fresh gate; blockWait blocks on it (counting the
// waiter first); blockOpen releases it, idempotently.
func blockArm() {
	blockGate.mu.Lock()
	blockGate.ch = make(chan struct{})
	blockGate.mu.Unlock()
}

func blockWait() {
	blockGate.mu.Lock()
	ch := blockGate.ch
	blockGate.mu.Unlock()
	if ch != nil {
		blockBuilds.Add(1)
		<-ch
	}
}

func blockOpen() {
	blockGate.mu.Lock()
	if blockGate.ch != nil {
		close(blockGate.ch)
		blockGate.ch = nil
	}
	blockGate.mu.Unlock()
}

func blockKernel() (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder("svcblock", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.I2F(1, kernel.R(0))
	b.FAdd(1, kernel.R(1), kernel.F(0.5))
	b.LdParam(4, 0)
	b.IShl(5, kernel.R(0), kernel.I(2))
	b.IAdd(4, kernel.R(4), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.AllocZeroF32(64)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: 1, Y: 1},
		Block:  kernel.Dim{X: 64, Y: 1},
		Params: []uint32{out},
	}, mem
}

func init() {
	spec := func() *sweep.Spec {
		return &sweep.Spec{
			Name:  "svcblock",
			Title: "service-test blocking scenario",
			Axes:  []sweep.Axis{{Name: "v", Values: []sweep.Value{{Name: "only"}}}},
			Base:  config.GT240,
			Workload: func(*sweep.Cell) (*sweep.Workload, error) {
				return &sweep.Workload{Name: "svcblock", Build: func(*config.GPU) (*sweep.Instance, error) {
					svcBuilds.Add(1)
					blockWait()
					l, mem := blockKernel()
					return &sweep.Instance{Mem: mem, Units: []sweep.Unit{{Name: l.Prog.Name, Launch: l}}}, nil
				}}, nil
			},
			Sim: true,
		}
	}
	sweep.Register(sweep.Scenario{
		Name: "svcblock", Title: "service-test blocking scenario",
		Spec: spec,
		Reduce: func([]*sweep.CellRecord, sweep.Filter) (*sweep.Report, error) {
			return &sweep.Report{Scenario: "svcblock"}, nil
		},
	})
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, j *Job, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := j.Status()
		if st.State == want {
			return st
		}
		if st.State.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s reached %s (%s), want %s", st.ID, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The admission policy is a pure function; exercise every branch without
// staging real load.
func TestAdmissionPolicy(t *testing.T) {
	opts := (&Options{MaxQueued: 2}).withDefaults()
	noBudget := simcache.Stats{Bytes: 1 << 30}
	if err := admissionError(noBudget, 0, 0, 0, opts); err != nil {
		t.Errorf("unbounded cache should admit: %v", err)
	}
	if err := admissionError(noBudget, 2, 0, 0, opts); err == nil {
		t.Error("full queue should reject")
	}
	pressured := simcache.Stats{BudgetBytes: 100, Bytes: 95, Evictions: 7}
	if err := admissionError(pressured, 0, 1, 7, opts); err != nil {
		t.Errorf("steady evictions should admit: %v", err)
	}
	if err := admissionError(pressured, 0, 1, 3, opts); err == nil {
		t.Error("near-budget cache with rising evictions under load should reject")
	}
	if err := admissionError(pressured, 1, 0, 3, opts); err == nil {
		t.Error("queued load counts as load for the pressure check")
	}
	if err := admissionError(pressured, 0, 0, 3, opts); err != nil {
		t.Errorf("an idle daemon should admit despite leftover eviction history: %v", err)
	}
	cold := simcache.Stats{BudgetBytes: 100, Bytes: 10, Evictions: 7}
	if err := admissionError(cold, 0, 1, 3, opts); err != nil {
		t.Errorf("low occupancy should admit despite evictions: %v", err)
	}
}

// One job end to end over HTTP: scenario metadata, submission, the NDJSON
// stream (plan order), status, error paths.
func TestServiceEndToEnd(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 2, MaxQueued: 8})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	infos, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*sweep.ScenarioInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName["l1sched"]; in == nil || !in.Sweep || in.Cells != 12 || in.TimingRuns != 12 {
		t.Errorf("l1sched metadata wrong: %+v", byName["l1sched"])
	}
	if in := byName["table2"]; in == nil || in.Sweep {
		t.Errorf("table2 should list as a non-sweep: %+v", byName["table2"])
	}

	// Error paths: unknown scenario 404, non-sweep 400, malformed filter 400.
	if _, err := c.Submit(ctx, sweep.JobRequest{Scenario: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("unknown scenario: %v", err)
	}
	if _, err := c.Submit(ctx, sweep.JobRequest{Scenario: "table2"}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("non-sweep scenario: %v", err)
	}
	if _, err := c.Submit(ctx, sweep.JobRequest{
		Scenario: "ablation-processnode", Filter: sweep.Filter{"variant": {"9nm"}},
	}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("bad filter: %v", err)
	}
	if _, err := c.Job(ctx, "job-999"); err == nil {
		t.Error("unknown job should 404")
	}

	// A real job: the cheapest sweep scenario.
	st, err := c.Submit(ctx, sweep.JobRequest{Scenario: "ablation-processnode", Label: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 5 || st.TimingRuns != 1 || st.Label != "e2e" {
		t.Errorf("submit status %+v", st)
	}
	var recs []*sweep.CellRecord
	if err := c.StreamCells(ctx, st.ID, func(r *sweep.CellRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("streamed %d records, want 5", len(recs))
	}
	plan, err := (&sweep.JobRequest{Scenario: "ablation-processnode"}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Index != i {
			t.Fatalf("stream order broken: record %d carries index %d", i, r.Index)
		}
		if want := plan.Cells[i].String(); r.CoordString() != want {
			t.Errorf("record %d coords %q, want plan order %q", i, r.CoordString(), want)
		}
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.DoneCells != 5 {
		t.Errorf("final status %+v", final)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 || jobs[len(jobs)-1].ID != st.ID {
		t.Errorf("job listing missing the job: %+v", jobs)
	}
}

// Cancel semantics: a queued job cancels before start; a running job
// stops at the next cell boundary and reports canceled.
func TestCancelQueuedAndRunning(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, MaxQueued: 1})
	defer m.Close()
	blockArm()
	defer blockOpen()
	builds := blockBuilds.Load()

	running, err := m.Submit(sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	// Wait until the single worker is actually blocked inside svcblock's
	// build, so cancellation precedes the executor's next context check.
	deadline := time.Now().Add(30 * time.Second)
	for blockBuilds.Load() == builds {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the blocking build")
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status(); st.State != StateQueued {
		t.Fatalf("second job should queue behind the blocked worker, is %s", st.State)
	}
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.Status(); st.State != StateCanceled {
		t.Errorf("queued job after cancel: %+v", st)
	}
	if rec, state, _ := queued.WaitCell(context.Background(), 0); rec != nil || state != StateCanceled {
		t.Errorf("canceled job's stream should terminate empty (%v, %s)", rec, state)
	}
	// Canceling freed the queue slot immediately: with MaxQueued=1 and the
	// worker still blocked, a fresh submission must be admitted (and a
	// second one rejected).
	queued2, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatalf("cancel should free the queue slot: %v", err)
	}
	if _, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"}); err == nil {
		t.Error("full queue should reject while the worker is blocked")
	}
	if err := m.Cancel(queued2.ID()); err != nil {
		t.Fatal(err)
	}

	// Cancel the running job, then release the build: the executor's next
	// context check stops the sweep.
	if err := m.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	blockOpen()
	st := waitState(t, running, StateCanceled)
	if st.Error == "" {
		t.Error("canceled running job should carry an error")
	}
}

// The submit handler must reject unknown fields rather than silently
// dropping a misspelled filter.
func TestSubmitUnknownField(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenario":"dvfs","fliter":{"scale":["0.5"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		body, _ := io.ReadAll(resp.Body)
		t.Errorf("unknown field accepted: %d %s", resp.StatusCode, body)
	}
	var env map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&env)
}
