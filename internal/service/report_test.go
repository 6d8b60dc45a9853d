package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sweep"
)

func init() {
	// svcredfail completes as a job but its reducer always rejects — the
	// 422 path (a reducer rejecting records it cannot aggregate).
	sweep.Register(sweep.Scenario{
		Name: "svcredfail", Title: "service-test reducer-rejection scenario",
		Spec: func() *sweep.Spec {
			return &sweep.Spec{
				Name:  "svcredfail",
				Title: "service-test reducer-rejection scenario",
				Axes:  []sweep.Axis{{Name: "v", Values: []sweep.Value{{Name: "only"}}}},
				Base:  config.GT240,
				Workload: func(*sweep.Cell) (*sweep.Workload, error) {
					return &sweep.Workload{Name: "svcredfail", Build: func(*config.GPU) (*sweep.Instance, error) {
						l, mem := blockKernel()
						return &sweep.Instance{Mem: mem, Units: []sweep.Unit{{Name: l.Prog.Name, Launch: l}}}, nil
					}}, nil
				},
				Sim: true,
			}
		},
		Reduce: func([]*sweep.CellRecord, sweep.Filter) (*sweep.Report, error) {
			return nil, fmt.Errorf("svcredfail: reduction always rejects")
		},
	})
}

// runToDone submits a request and blocks until the job terminates.
func runToDone(t *testing.T, m *Manager, req sweep.JobRequest) *Job {
	t.Helper()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return waitDone(t, j)
}

func waitDone(t *testing.T, j *Job) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !j.Status().State.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never terminated", j.ID())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return j
}

// The events stream: one Progress per cell in plan order, done counters
// incrementing, cost fractions nondecreasing and ending at ~1, each event
// embedding the same record the cells stream carries.
func TestJobEventsStream(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, MaxQueued: 4})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	st, err := c.Submit(ctx, sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	var events []*sweep.Progress
	if err := c.StreamEvents(ctx, st.ID, func(pr *sweep.Progress) error {
		events = append(events, pr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("streamed %d events, want 5", len(events))
	}
	prevFrac := 0.0
	for i, pr := range events {
		if pr.Done != i+1 || pr.Total != 5 || pr.TimingRuns != 1 || pr.Scenario != "ablation-processnode" {
			t.Errorf("event %d: %+v", i, pr)
		}
		if pr.Cell == nil || pr.Cell.Index != i {
			t.Errorf("event %d embeds cell %+v", i, pr.Cell)
		}
		if pr.CostFraction < prevFrac {
			t.Errorf("event %d: cost fraction regressed %g -> %g", i, prevFrac, pr.CostFraction)
		}
		prevFrac = pr.CostFraction
	}
	if prevFrac < 0.999 || prevFrac > 1.000001 {
		t.Errorf("final cost fraction %g, want ~1", prevFrac)
	}

	// The embedded records are the cells stream's records, verbatim.
	var recs []*sweep.CellRecord
	if err := c.StreamCells(ctx, st.ID, func(r *sweep.CellRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !reflect.DeepEqual(events[i].Cell, recs[i]) {
			t.Errorf("event %d cell diverges from cells stream", i)
		}
	}

	// A canceled job's events stream terminates with the error line.
	blockArm()
	defer blockOpen()
	bst, err := c.Submit(ctx, sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, bst.ID); err != nil {
		t.Fatal(err)
	}
	blockOpen()
	if err := c.StreamEvents(ctx, bst.ID, func(*sweep.Progress) error { return nil }); err == nil {
		t.Error("canceled job's events stream should surface the terminal error")
	}
}

// The in-process progress hook and the daemon's events stream carry the
// same events: for one request, the hook's events JSON-encoded are the
// /v1/jobs/{id}/events body byte for byte.
func TestEventsMatchInProcessProgress(t *testing.T) {
	const scenario = "ablation-processnode"
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	sweep.SetProgress(func(pr sweep.Progress) {
		if err := enc.Encode(pr); err != nil {
			t.Error(err)
		}
	})
	_, err := sweep.BuildReport(scenario, nil)
	sweep.SetProgress(nil)
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	j, err := m.Submit(sweep.JobRequest{Scenario: scenario})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("daemon events differ from in-process progress:\n got %s\nwant %s", got, want.Bytes())
	}
}

// The report endpoint: 409 while unfinished, the reduced report once done,
// 404 for scenarios without a reduction, 422 when the reducer rejects.
func TestJobReportEndpoint(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, MaxQueued: 4})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	// Unfinished job: 409.
	blockArm()
	defer blockOpen()
	bst, err := c.Submit(ctx, sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + bst.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report on a running job: HTTP %d, want 409", resp.StatusCode)
	}
	blockOpen()
	bj, _ := m.Job(bst.ID)
	waitDone(t, bj)

	// A finished dvfs job serves the same report the in-process reduction
	// builds for the same request — DeepEqual across the JSON hop.
	req := sweep.JobRequest{Scenario: "dvfs", Filter: sweep.Filter{"scale": {"0.5", "1.0"}}}
	j := runToDone(t, m, req)
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("dvfs job ended %s: %s", st.State, st.Error)
	}
	got, err := c.Report(ctx, j.ID())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.BuildReport("dvfs", req.Filter)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote report diverged:\n got %+v\nwant %+v", got, want)
	}

	// A job whose reducer rejects its records: 422.
	pj := runToDone(t, m, sweep.JobRequest{Scenario: "svcredfail"})
	if st := pj.Status(); st.State != StateDone {
		t.Fatalf("svcredfail job ended %s: %s", st.State, st.Error)
	}
	resp, err = srv.Client().Get(srv.URL + "/v1/jobs/" + pj.ID() + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("reducer rejection: HTTP %d, want 422", resp.StatusCode)
	}

	// A canceled job is permanently reportless: 410, not a retryable 409.
	blockArm()
	cst, err := c.Submit(ctx, sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, cst.ID); err != nil {
		t.Fatal(err)
	}
	blockOpen()
	cj, ok := m.Job(cst.ID)
	if !ok {
		t.Fatal("canceled job vanished")
	}
	waitDone(t, cj)
	resp, err = srv.Client().Get(srv.URL + "/v1/jobs/" + cst.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("report on a canceled job: HTTP %d, want 410", resp.StatusCode)
	}

	// Scenario-specific filter constraints fail at submit time — a filter
	// the reduction would reject must never become a job.
	if _, err := c.Submit(ctx, sweep.JobRequest{
		Scenario: "energyperop", Filter: sweep.Filter{"lanes": {"31"}},
	}); err == nil || !strings.Contains(err.Error(), "full grid") {
		t.Errorf("filtered energyperop should be rejected at submit: %v", err)
	}
	if _, err := c.Submit(ctx, sweep.JobRequest{
		Scenario: "fig6", Filter: sweep.Filter{"bench": {"bfs"}},
	}); err == nil || !strings.Contains(err.Error(), "gpu only") {
		t.Errorf("bench-filtered fig6 should be rejected at submit: %v", err)
	}
}

// Retention: terminal jobs beyond RetainJobs leave the table (newest
// kept), age-based pruning sheds stale jobs, live jobs always stay.
func TestJobRetention(t *testing.T) {
	// Two workers: the blocking svcblock job must not starve the terminal
	// jobs submitted while it runs.
	m := NewManager(Options{MaxConcurrent: 2, MaxQueued: 8, RetainJobs: 1})
	defer m.Close()

	first := runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode"})
	second := runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode", Label: "second"})
	third := runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode", Label: "third"})

	sts := m.Statuses()
	if len(sts) != 1 || sts[0].ID != third.ID() {
		t.Fatalf("retention kept %+v, want only %s", sts, third.ID())
	}
	for _, id := range []string{first.ID(), second.ID()} {
		if _, ok := m.Job(id); ok {
			t.Errorf("pruned job %s still resolvable", id)
		}
	}
	if _, ok := m.Job(third.ID()); !ok {
		t.Error("newest terminal job should survive retention")
	}

	// A running job is never pruned, no matter how many terminals follow.
	blockArm()
	defer blockOpen()
	running, err := m.Submit(sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	done := runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode"})
	if _, ok := m.Job(running.ID()); !ok {
		t.Error("running job pruned")
	}
	if _, ok := m.Job(done.ID()); !ok {
		t.Error("newest terminal job pruned")
	}
	blockOpen()
	waitDone(t, running)
}

// Age-based retention prunes on the next activity (here: a submission).
func TestJobRetentionByAge(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, MaxQueued: 8, RetainAge: time.Nanosecond})
	defer m.Close()
	old := runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode"})
	time.Sleep(10 * time.Millisecond)
	fresh := runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode"})
	if _, ok := m.Job(old.ID()); ok {
		t.Error("stale terminal job survived age-based retention")
	}
	_ = fresh
}

// The EWMA calibration: pure arithmetic, then the integration — a
// completed job feeds the model, and a later running job's ETA scales
// remaining cost units by it.
func TestEtaModel(t *testing.T) {
	var e etaModel
	if _, ok := e.estimate(100); ok {
		t.Error("empty model should not estimate")
	}
	e.observe(0, 1) // ignored: no units
	e.observe(100, 2)
	if got, ok := e.estimate(50); !ok || math.Abs(got-1.0) > 1e-12 {
		t.Errorf("first sample should set the rate exactly: got %g (ok=%v), want 1", got, ok)
	}
	e.observe(100, 4) // rate sample 0.04; ewma = 0.2*0.04 + 0.8*0.02 = 0.024
	if got, _ := e.estimate(1000); math.Abs(got-24.0) > 1e-9 {
		t.Errorf("ewma estimate %g, want 24", got)
	}
}

func TestEtaCalibrationFeedsStatuses(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1, MaxQueued: 4})
	defer m.Close()
	runToDone(t, m, sweep.JobRequest{Scenario: "ablation-processnode"})
	if m.eta.observations() == 0 {
		t.Fatal("completed job fed no calibration samples")
	}
	// A second job's status can carry a calibrated ETA as soon as its cost
	// is known, even at zero progress: synthesize the state rather than
	// racing a live sweep.
	j, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	j.mu.Lock()
	j.state = StateRunning
	j.records = j.records[:2]
	j.started = time.Now().Add(-time.Hour)
	j.mu.Unlock()
	st := j.Status()
	if st.CostFraction <= 0 || st.CostFraction >= 1 {
		t.Fatalf("two of five cells done: cost fraction %g", st.CostFraction)
	}
	remaining := (1 - st.CostFraction) * float64(st.EstCycles)
	want, ok := m.eta.estimate(remaining)
	if !ok || math.Abs(st.ETASeconds-want) > 1e-9 {
		t.Errorf("status ETA %g, want calibrated %g (ok=%v)", st.ETASeconds, want, ok)
	}
	j.mu.Lock()
	j.state = StateDone
	j.mu.Unlock()
}
