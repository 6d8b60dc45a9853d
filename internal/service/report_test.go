package service

import (
	"context"
	"fmt"
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
	// Over HTTP a pruned ID answers 410, so a caller can tell it from an
	// ID the daemon never issued (404).
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	for path, want := range map[string]int{
		"/v1/jobs/" + first.ID():            http.StatusGone,
		"/v1/jobs/" + first.ID() + "/cells": http.StatusGone,
		"/v1/jobs/job-99":                   http.StatusNotFound,
		"/v1/jobs/job-1x":                   http.StatusNotFound,
	} {
		if code, _ := httpGet(t, srv.URL+path); code != want {
			t.Errorf("GET %s: HTTP %d, want %d", path, code, want)
		}
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
