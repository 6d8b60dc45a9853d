package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
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

// eventFractions reads every event of a finished job and returns their
// cost-weighted completion fractions, in plan order.
func eventFractions(t *testing.T, j *Job) []float64 {
	t.Helper()
	var out []float64
	for i := 0; ; i++ {
		pr, _, errMsg := j.WaitEvent(context.Background(), i)
		if pr == nil {
			if errMsg != "" {
				t.Fatalf("event %d: %s", i, errMsg)
			}
			return out
		}
		out = append(out, pr.CostFraction)
	}
}

// A done job recovered after a restart reports the progress it reported
// before it: every event carries the same cost fraction, and the status
// the same cost estimate and completed fraction.
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
	fr1 := eventFractions(t, j1)
	m1.Close()
	if st1.EstCycles == 0 || len(fr1) != st1.Cells || fr1[len(fr1)-1] <= 0 {
		t.Fatalf("live job progress: status %+v, event fractions %v", st1, fr1)
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
	if st2.State != StateDone || st2.EstCycles != st1.EstCycles || st2.CostFraction != st1.CostFraction {
		t.Errorf("recovered status estCycles=%d costFraction=%g, want %d and %g",
			st2.EstCycles, st2.CostFraction, st1.EstCycles, st1.CostFraction)
	}
	if fr2 := eventFractions(t, j2); !reflect.DeepEqual(fr2, fr1) {
		t.Errorf("recovered event fractions %v, want %v", fr2, fr1)
	}
}

// A job the process was executing when it died recovers as interrupted
// and re-executes to a bit-identical result. The crash image is built
// through the store's own write path: submission, the running
// transition, two of five cell records — then nothing, as if the process
// was killed mid-stream.
func TestCrashRecoveryReExecutesBitIdentically(t *testing.T) {
	req := sweep.JobRequest{Scenario: "ablation-processnode"}
	refRecs, refRep := referenceRun(t, req)

	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s.append(journalEntry{Submit: &storedJob{ID: "job-1", Request: req, State: StateQueued, Created: now}})
	s.append(journalEntry{State: &stateEntry{ID: "job-1", State: StateRunning, At: now}})
	s.append(journalEntry{Cell: &cellEntry{ID: "job-1", Record: refRecs[0]}})
	s.append(journalEntry{Cell: &cellEntry{ID: "job-1", Record: refRecs[1]}})
	s.close()

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
// (absurdly fast seconds-per-unit) plus a nanosecond floor makes any real
// job "stuck" instantly, without staging an actual hang.
func TestJobTimeoutFromCalibration(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	m.timeoutFloor = time.Nanosecond // set before Submit, which publishes it to the worker
	m.eta.observe(1e12, 1e-9)        // ≈1e-21 s per cost unit: everything is "stuck"
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
