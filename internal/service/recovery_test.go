package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sweep"
)

// panicArmed gates svcpanic's panic: only armed tests trip it (unarmed,
// the scenario builds normally — DescribeAll cost-estimates every
// registered sweep, which must not blow up the metadata endpoint).
var panicArmed atomic.Bool

// driftHalved halves svcdrift's thread block: flipping it between two
// managers on one state dir stands in for a build that no longer
// reproduces the records it digested.
var driftHalved atomic.Bool

func init() {
	// svcpanic's workload build panics while armed — the stand-in for a
	// buggy scenario author. The daemon must fail the job, not die.
	sweep.Register(sweep.Scenario{
		Name: "svcpanic", Title: "service-test panicking scenario",
		Spec: func() *sweep.Spec {
			return &sweep.Spec{
				Name:  "svcpanic",
				Title: "service-test panicking scenario",
				Axes:  []sweep.Axis{{Name: "v", Values: []sweep.Value{{Name: "only"}}}},
				Base:  config.GT240,
				Workload: func(*sweep.Cell) (*sweep.Workload, error) {
					return &sweep.Workload{Name: "svcpanic", Build: func(*config.GPU) (*sweep.Instance, error) {
						if panicArmed.Load() {
							panic("svcpanic: deliberate test panic")
						}
						l, mem := blockKernel()
						return &sweep.Instance{Mem: mem, Units: []sweep.Unit{{Name: l.Prog.Name, Launch: l}}}, nil
					}}, nil
				},
				Sim: true,
			}
		},
		Reduce: func([]*sweep.CellRecord, sweep.Filter) (*sweep.Report, error) {
			return &sweep.Report{Scenario: "svcpanic"}, nil
		},
	})
	// svcdrift's records depend on driftHalved; its cell "b" simulates a
	// workload of its own (a second timing group) whose functional check
	// waits on the svcblock gate, so a job can stop after exactly one
	// record.
	sweep.Register(sweep.Scenario{
		Name: "svcdrift", Title: "service-test drifting scenario",
		Spec: func() *sweep.Spec {
			return &sweep.Spec{
				Name:  "svcdrift",
				Title: "service-test drifting scenario",
				Axes:  []sweep.Axis{{Name: "v", Values: []sweep.Value{{Name: "a"}, {Name: "b"}}}},
				Base:  config.GT240,
				Workload: func(c *sweep.Cell) (*sweep.Workload, error) {
					v := c.Value("v")
					return &sweep.Workload{Name: "svcdrift-" + v, Build: func(*config.GPU) (*sweep.Instance, error) {
						l, mem := blockKernel()
						if driftHalved.Load() {
							l.Block.X /= 2
						}
						inst := &sweep.Instance{Mem: mem, Units: []sweep.Unit{{Name: l.Prog.Name, Launch: l}}}
						if v == "b" {
							inst.Verify = func() error { blockWait(); return nil }
						}
						return inst, nil
					}}, nil
				},
				Sim: true,
			}
		},
		Reduce: func([]*sweep.CellRecord, sweep.Filter) (*sweep.Report, error) {
			return &sweep.Report{Scenario: "svcdrift"}, nil
		},
	})
}

// resetFaultpoint re-arms a named faultpoint (they fire once per process;
// tests must stay correct under -count=N).
func resetFaultpoint(name string) {
	faultMu.Lock()
	delete(faultHits, name)
	faultMu.Unlock()
}

// referenceRun executes one request on a store-less manager and returns
// the uninterrupted records and report — the ground truth recovery must
// reproduce bit-identically.
func referenceRun(t *testing.T, req sweep.JobRequest) ([]*sweep.CellRecord, *sweep.Report) {
	t.Helper()
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	rep, err := j.Report()
	if err != nil {
		t.Fatal(err)
	}
	return j.Records(), rep
}

// A terminal job survives a restart intact: records and timestamps
// restore from disk, with no re-execution, and the report reduced afresh
// from the recovered records equals the original.
func TestRecoverTerminalJobIntact(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(sweep.JobRequest{Scenario: "ablation-processnode", Label: "durable"})
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitState(t, j1, StateDone)
	recs := j1.Records()
	rep, err := j1.Report()
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Job(j1.ID())
	if !ok {
		t.Fatal("job not recovered")
	}
	// Recovered as done immediately — a re-execution would read queued or
	// interrupted at this instant.
	st2 := j2.Status()
	if st2.State != StateDone || st2.DoneCells != len(recs) || st2.Label != "durable" {
		t.Fatalf("recovered status %+v", st2)
	}
	if !st2.Created.Equal(st1.Created) || st2.Started == nil || !st2.Started.Equal(*st1.Started) ||
		st2.Finished == nil || !st2.Finished.Equal(*st1.Finished) {
		t.Errorf("timestamps drifted: %+v vs %+v", st2, st1)
	}
	if !reflect.DeepEqual(j2.Records(), recs) {
		t.Error("recovered records differ from the originals")
	}
	rep2, err := j2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep2, rep) {
		t.Error("recovered report differs from the original")
	}
}

// eventDone reads every event of a finished job and returns their done
// counters, in plan order.
func eventDone(t *testing.T, j *Job) []int {
	t.Helper()
	var out []int
	for i := 0; ; i++ {
		pr, _, errMsg := j.WaitEvent(context.Background(), i)
		if pr == nil {
			if errMsg != "" {
				t.Fatalf("event %d: %s", i, errMsg)
			}
			return out
		}
		out = append(out, pr.Done)
	}
}

// A done job recovered after a restart reports the progress it reported
// before it: every event carries the same done counter, and the status
// the same done cell count.
func TestRecoveredJobProgress(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitState(t, j1, StateDone)
	done1 := eventDone(t, j1)
	m1.Close()
	if st1.DoneCells != st1.Cells || len(done1) != st1.Cells || done1[len(done1)-1] != st1.Cells {
		t.Fatalf("live job progress: status %+v, event done counters %v", st1, done1)
	}

	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Job(j1.ID())
	if !ok {
		t.Fatal("job not recovered")
	}
	st2 := j2.Status()
	if st2.State != StateDone || st2.DoneCells != st1.DoneCells {
		t.Errorf("recovered status %s with %d done cells, want done with %d",
			st2.State, st2.DoneCells, st1.DoneCells)
	}
	if done2 := eventDone(t, j2); !reflect.DeepEqual(done2, done1) {
		t.Errorf("recovered event done counters %v, want %v", done2, done1)
	}
}

// Describing a scenario and polling a recovered terminal job's status
// read only the plan and the stored record count: neither builds a
// workload instance.
func TestDescribeAndRecoveredStatusBuildNothing(t *testing.T) {
	builds := svcBuilds.Load()
	if _, err := sweep.Describe("svcblock"); err != nil {
		t.Fatal(err)
	}
	if n := svcBuilds.Load() - builds; n != 0 {
		t.Errorf("Describe built %d workload instance(s)", n)
	}

	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	m1.Close()

	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Job(j1.ID())
	if !ok {
		t.Fatal("job not recovered")
	}
	builds = svcBuilds.Load()
	if st := j2.Status(); st.State != StateDone || st.Started == nil || st.DoneCells != 1 {
		t.Errorf("recovered status %+v, want a started, done job with 1 done cell", st)
	}
	if n := svcBuilds.Load() - builds; n != 0 {
		t.Errorf("a recovered job's status built %d workload instance(s)", n)
	}
}

// A job the process was executing when it died recovers as interrupted
// and re-executes to a bit-identical result. The crash image is built
// through the store's own write path: the submission and the running
// transition — then nothing, which is what a process killed mid-stream
// leaves, since no record is journaled.
func TestCrashRecoveryReExecutesBitIdentically(t *testing.T) {
	req := sweep.JobRequest{Scenario: "ablation-processnode"}
	refRecs, refRep := referenceRun(t, req)

	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s.Append(journalEntry{Submit: &storedJob{ID: "job-1", Request: req, State: StateQueued, Created: now}})
	s.Append(journalEntry{State: &stateEntry{ID: "job-1", State: StateRunning, At: now}})
	s.Close()

	m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, ok := m.Job("job-1")
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	waitState(t, j, StateDone)
	if !reflect.DeepEqual(j.Records(), refRecs) {
		t.Error("re-executed records differ from the uninterrupted run")
	}
	rep, err := j.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, refRep) {
		t.Error("re-executed report differs from the uninterrupted run")
	}
	// The recovered daemon never reuses the crashed job's ID.
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() != "job-2" {
		t.Errorf("next ID %s, want job-2", j2.ID())
	}
}

// Graceful drain: submissions are rejected while draining, and a running
// job that outlives the deadline is checkpointed as interrupted — then
// re-executes to completion in the next process.
func TestShutdownCheckpointsRunningJob(t *testing.T) {
	refRecs, _ := referenceRun(t, sweep.JobRequest{Scenario: "svcblock"})

	dir := t.TempDir()
	m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blockArm()
	defer blockOpen()
	builds := blockBuilds.Load()
	j, err := m.Submit(sweep.JobRequest{Scenario: "svcblock"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	deadline := time.Now().Add(30 * time.Second)
	for blockBuilds.Load() == builds {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the blocking build")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain with an already-expired deadline: the running job must be
	// interrupted, not waited for.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() { m.Shutdown(expired); close(done) }()

	// The drain marks the job interrupted (it is still stuck in the
	// blocked build) and rejects new submissions.
	for {
		j.mu.Lock()
		interrupted := j.interrupted
		j.mu.Unlock()
		if interrupted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shutdown never interrupted the running job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := m.Submit(sweep.JobRequest{Scenario: "svcblock"}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain: %v, want ErrDraining", err)
	}
	blockOpen()
	<-done
	if st := j.Status(); st.State != StateInterrupted {
		t.Fatalf("job after drain: %+v, want interrupted", st)
	}

	// Next process: the checkpointed job re-enqueues and completes.
	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Job(j.ID())
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	waitState(t, j2, StateDone)
	if !reflect.DeepEqual(j2.Records(), refRecs) {
		t.Error("re-executed records differ from the uninterrupted run")
	}
}

// The EWMA-calibrated timeout fails a stuck job. A poisoned calibration
// (absurdly fast seconds-per-cell) plus a nanosecond floor makes any real
// job "stuck" instantly, without staging an actual hang.
func TestJobTimeoutFromCalibration(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	m.timeoutFloor = time.Nanosecond // set before Submit, which publishes it to the worker
	m.eta.observe(1e-21)             // 1e-21 s per cell: everything is "stuck"
	j, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, StateFailed)
	if !strings.Contains(st.Error, "timed out") {
		t.Errorf("timeout error %q", st.Error)
	}
}

// A panicking workload build fails its own job — with the panic and
// stack in the job error — and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	panicArmed.Store(true)
	defer panicArmed.Store(false)
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	j, err := m.Submit(sweep.JobRequest{Scenario: "svcpanic"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, StateFailed)
	if !strings.Contains(st.Error, "svcpanic: deliberate test panic") ||
		!strings.Contains(st.Error, "goroutine") {
		t.Errorf("panic error should carry the value and a stack, got %q", st.Error)
	}
	// The daemon survived: the next job runs normally.
	j2, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateDone)
}

// The panic-in-reduce faultpoint: a panicking reducer fails that one
// report request; the job stays done, and the next request succeeds.
func TestReducePanicIsolation(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	j, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	resetFaultpoint(FaultPanicInReduce)
	t.Setenv("GPUSIMPOW_FAULTPOINT", FaultPanicInReduce)
	if _, err := j.Report(); err == nil || !strings.Contains(err.Error(), "reduce panicked") {
		t.Fatalf("armed reduce faultpoint: %v, want a contained panic", err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Errorf("a report panic must not poison the job: %+v", st)
	}
	rep, err := j.Report() // the faultpoint fires once; this one reduces
	if err != nil || rep == nil {
		t.Fatalf("second report after contained panic: %v", err)
	}
}

// httpGet fetches one URL and returns its status code and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// The store keeps no records: after a done job and a clean Close neither
// the snapshot nor the journal holds a CellRecord, and the job's stored
// digest is the sha256 of its /cells stream.
func TestStoreKeepsNoRecords(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	j, err := m.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	_, body := httpGet(t, srv.URL+"/v1/jobs/"+j.ID()+"/cells")
	m.Close()

	sum := sha256.Sum256(body)
	if sj := j.stored(); sj.Count != 5 || sj.Digest != hex.EncodeToString(sum[:]) {
		t.Errorf("stored stream: count %d digest %s, want 5 and the /cells sha256 %x", sj.Count, sj.Digest, sum)
	}
	for _, name := range []string{"snapshot.json", "journal.ndjson"} {
		b, err := os.ReadFile(filepath.Join(storeDir(dir), name))
		if err != nil {
			t.Fatal(err)
		}
		// Every CellRecord carries these keys; nothing else in the store does.
		for _, key := range []string{`"coords"`, `"groupLeader"`} {
			if bytes.Contains(b, []byte(key)) {
				t.Errorf("%s holds a cell record (%s): %s", name, key, b)
			}
		}
	}
}

// A recovered job whose records this build no longer reproduces fails
// with a *DeterminismError naming both digests: /cells serves none of the
// differing records, only the error line, and /report is refused.
func TestRecoveredJobDeterminismViolation(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(sweep.JobRequest{Scenario: "svcdrift"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	want := j1.stored().Digest
	m1.Close()

	driftHalved.Store(true)
	defer driftHalved.Store(false)
	drifted, _ := referenceRun(t, sweep.JobRequest{Scenario: "svcdrift"})
	got := recordDigest(drifted)
	if got == want {
		t.Fatal("svcdrift's records do not depend on driftHalved")
	}

	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	srv := httptest.NewServer(NewServer(m2))
	defer srv.Close()
	j2, ok := m2.Job(j1.ID())
	if !ok {
		t.Fatal("job not recovered")
	}
	if st := j2.Status(); st.State != StateDone || st.DoneCells != 2 {
		t.Fatalf("recovered status before any reader: %+v", st)
	}

	_, body := httpGet(t, srv.URL+"/v1/jobs/"+j2.ID()+"/cells")
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var trailer struct {
		Error string `json:"error"`
	}
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &trailer) != nil ||
		!strings.Contains(trailer.Error, "determinism violation") {
		t.Fatalf("/cells of a drifted job served %q, want only the error line", body)
	}

	_, err = j2.Report()
	var derr *DeterminismError
	if !errors.As(err, &derr) || derr.Want != want || derr.Got != got {
		t.Fatalf("report error %v, want a *DeterminismError with digests %s and %s", err, want, got)
	}
	if st := j2.Status(); st.State != StateFailed || !strings.Contains(st.Error, want) || !strings.Contains(st.Error, got) {
		t.Errorf("drifted job status %+v, want failed naming both digests", st)
	}
	if code, _ := httpGet(t, srv.URL+"/v1/jobs/"+j2.ID()+"/report"); code != http.StatusGone {
		t.Errorf("/report of a drifted job: %d, want 410", code)
	}
	if recs := j2.Records(); len(recs) != 0 {
		t.Errorf("drifted job publishes %d records", len(recs))
	}
}

// A canceled job recovers with the prefix it streamed: /cells re-derives
// its one record, bit-identical, then ends with the job's error line.
func TestRecoveredCanceledJobServesPrefix(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blockArm()
	defer blockOpen()
	j1, err := m1.Submit(sweep.JobRequest{Scenario: "svcdrift"})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, _ := j1.WaitCell(context.Background(), 0)
	if rec == nil {
		t.Fatalf("no first record: %+v", j1.Status())
	}
	if err := m1.Cancel(j1.ID()); err != nil {
		t.Fatal(err)
	}
	blockOpen()
	if st := waitState(t, j1, StateCanceled); st.DoneCells != 1 {
		t.Fatalf("canceled job streamed %d records, want 1", st.DoneCells)
	}
	m1.Close()

	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	srv := httptest.NewServer(NewServer(m2))
	defer srv.Close()
	_, body := httpGet(t, srv.URL+"/v1/jobs/"+j1.ID()+"/cells")
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(body); got != string(want)+"\n"+`{"error":"canceled"}`+"\n" {
		t.Errorf("/cells of a recovered canceled job:\n%s\nwant its record, then the error line", got)
	}
}

// Concurrent first readers of a recovered job share one re-derivation
// and all see the original records and report.
func TestRecoveredJobConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(sweep.JobRequest{Scenario: "ablation-processnode"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	recs, rep := j1.Records(), mustReport(t, j1)
	m1.Close()

	m2, err := OpenManager(Options{MaxConcurrent: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, _ := m2.Job(j1.ID())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := j2.Records(); !reflect.DeepEqual(got, recs) {
				t.Error("concurrent reader saw different records")
			}
			if got, err := j2.Report(); err != nil || !reflect.DeepEqual(got, rep) {
				t.Errorf("concurrent reader's report differs (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

// mustReport returns a done job's report.
func mustReport(t *testing.T, j *Job) *sweep.Report {
	t.Helper()
	rep, err := j.Report()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Closing the manager abandons re-derivations: one in flight and one
// requested after Close both leave their job done but without records, a
// report request gets ErrDraining (503), and the next process still
// re-derives both from the stored count and digest.
func TestRecoveredJobAbandonedAtClose(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]*sweep.CellRecord
	for i := 0; i < 2; i++ {
		j, err := m1.Submit(sweep.JobRequest{Scenario: "svcdrift"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		want = append(want, j.Records())
	}
	m1.Close()

	m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inFlight, _ := m2.Job("job-1")
	late, _ := m2.Job("job-2")
	blockArm()
	defer blockOpen()
	builds := blockBuilds.Load()
	read := make(chan []*sweep.CellRecord)
	go func() { read <- inFlight.Records() }()
	deadline := time.Now().Add(30 * time.Second)
	for blockBuilds.Load() == builds { // the re-derivation waits in cell b's check
		if time.Now().After(deadline) {
			t.Fatal("re-derivation never reached the gate")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { m2.Close(); close(closed) }()
	for m2.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	blockOpen()
	<-closed
	if got := <-read; len(got) != 0 {
		t.Errorf("abandoned re-derivation published %d records", len(got))
	}
	for _, j := range []*Job{inFlight, late} {
		if _, err := j.Report(); !errors.Is(err, ErrDraining) {
			t.Errorf("%s report after Close: %v, want ErrDraining", j.ID(), err)
		}
		if st := j.Status(); st.State != StateDone {
			t.Errorf("%s after Close: %+v, want done", j.ID(), st)
		}
	}

	m3, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	for i, id := range []string{"job-1", "job-2"} {
		j, _ := m3.Job(id)
		if got := j.Records(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s records after the next restart differ", id)
		}
	}
}
