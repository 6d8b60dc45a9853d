package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sweep"
)

// readCells reads one /cells response whole: its body up to where the
// connection ended, and the read error (nil for a clean end).
func readCells(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, DecodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// within receives from ch, failing the test if nothing comes in time: a
// reader a daemon never lets go of hangs, it does not fail.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting until %s", what)
		panic("unreachable")
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gpowd ends a cells stream cleanly only when it is complete. A reader of
// a job a drain deadline interrupts, and a reader of a recovered job
// whose re-derivation Close abandons, both see the connection break
// (io.ErrUnexpectedEOF) and resume on the next manager to byte-identical
// lines. A done job's stream ends cleanly after its last cell, a failed
// job's after its trailer.
func TestStreamEndsCleanlyOnlyWhenComplete(t *testing.T) {
	ref := func() []byte {
		m := NewManager(Options{MaxConcurrent: 1})
		defer m.Close()
		srv := httptest.NewServer(NewServer(m))
		defer srv.Close()
		j, err := m.Submit(sweep.JobRequest{Scenario: "svcdrift"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		body, err := readCells(srv.URL + "/v1/jobs/" + j.ID() + "/cells")
		if err != nil {
			t.Fatalf("done job's stream: %v, want a clean end", err)
		}
		if n := bytes.Count(body, []byte("\n")); n != 2 {
			t.Fatalf("done job's stream has %d lines, want its 2 cells", n)
		}
		return body
	}()

	// resume reads job id's stream from line from on a fresh manager over
	// dir, and returns the lines it serves.
	resume := func(dir, id string, from int) []byte {
		m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		srv := httptest.NewServer(NewServer(m))
		defer srv.Close()
		body, err := readCells(fmt.Sprintf("%s/v1/jobs/%s/cells?from=%d", srv.URL, id, from))
		if err != nil {
			t.Fatalf("resumed stream of %s: %v, want a clean end", id, err)
		}
		return body
	}

	t.Run("drain", func(t *testing.T) {
		dir := t.TempDir()
		m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(m))
		defer srv.Close()
		defer srv.CloseClientConnections()
		blockArm()
		defer blockOpen()
		j, err := m.Submit(sweep.JobRequest{Scenario: "svcdrift"})
		if err != nil {
			t.Fatal(err)
		}
		// Cell a streams; cell b waits at the gate.
		waitFor(t, "cell a streamed", func() bool { return j.Status().DoneCells == 1 })
		type result struct {
			body []byte
			err  error
		}
		read := make(chan result, 1)
		go func() {
			body, err := readCells(srv.URL + "/v1/jobs/" + j.ID() + "/cells")
			read <- result{body, err}
		}()

		expired, cancel := context.WithCancel(context.Background())
		cancel()
		done := make(chan struct{})
		go func() { m.Shutdown(expired); close(done) }()
		waitFor(t, "the drain interrupts the job", func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.interrupted
		})
		blockOpen()
		<-done
		if st := j.Status(); st.State != StateInterrupted {
			t.Fatalf("job after the drain: %+v, want interrupted", st)
		}
		got := within(t, "the interrupted job's stream ends", read)
		if !errors.Is(got.err, io.ErrUnexpectedEOF) {
			t.Errorf("stream of the interrupted job ended with %v, want io.ErrUnexpectedEOF", got.err)
		}
		if n := bytes.Count(got.body, []byte("\n")); n != 1 || !bytes.HasPrefix(ref, got.body) {
			t.Fatalf("stream before the break:\n%s\nwant the first line of:\n%s", got.body, ref)
		}
		if all := append(got.body, resume(dir, j.ID(), 1)...); !bytes.Equal(all, ref) {
			t.Errorf("stream resumed on the next manager:\n%s\nwant:\n%s", all, ref)
		}
	})

	t.Run("abandoned re-derivation", func(t *testing.T) {
		dir := t.TempDir()
		m1, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		j, err := m1.Submit(sweep.JobRequest{Scenario: "svcdrift"})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		m1.Close()

		m2, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(m2))
		defer srv.Close()
		defer srv.CloseClientConnections()
		blockArm()
		defer blockOpen()
		builds := blockBuilds.Load()
		read := make(chan error, 1)
		var body []byte
		go func() {
			var err error
			body, err = readCells(srv.URL + "/v1/jobs/" + j.ID() + "/cells")
			read <- err
		}()
		// The reader's re-derivation waits in cell b's check.
		waitFor(t, "the re-derivation reaches the gate", func() bool { return blockBuilds.Load() != builds })
		closed := make(chan struct{})
		go func() { m2.Close(); close(closed) }()
		waitFor(t, "Close stops the re-derivation", func() bool { return m2.ctx.Err() != nil })
		blockOpen()
		<-closed
		if err := within(t, "the abandoned re-derivation's stream ends", read); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream of the abandoned re-derivation ended with %v, want io.ErrUnexpectedEOF", err)
		}
		if len(body) != 0 {
			t.Errorf("abandoned re-derivation streamed %q", body)
		}
		if got := resume(dir, j.ID(), 0); !bytes.Equal(got, ref) {
			t.Errorf("stream on the next manager:\n%s\nwant:\n%s", got, ref)
		}
	})

	t.Run("failed", func(t *testing.T) {
		panicArmed.Store(true)
		defer panicArmed.Store(false)
		m := NewManager(Options{MaxConcurrent: 1})
		defer m.Close()
		srv := httptest.NewServer(NewServer(m))
		defer srv.Close()
		j, err := m.Submit(sweep.JobRequest{Scenario: "svcpanic"})
		if err != nil {
			t.Fatal(err)
		}
		st := waitState(t, j, StateFailed)
		body, err := readCells(srv.URL + "/v1/jobs/" + j.ID() + "/cells")
		if err != nil {
			t.Fatalf("failed job's stream: %v, want a clean end after its trailer", err)
		}
		var je *JobError
		if !errors.As(trailer(j.ID(), body), &je) || je.Msg != st.Error || bytes.Count(body, []byte("\n")) != 1 {
			t.Errorf("failed job's stream %q, want one trailer with its error", body)
		}
	})
}

// Every record line of every pinned scenario stream reads as a payload,
// and a trailer as either daemon encodes it (gpowd's json.Encoder of a
// map, gpowfleet's json.Marshal of one) reads as the job's error with the
// message it carried.
func TestTrailerPrefixRule(t *testing.T) {
	files, err := filepath.Glob("../experiments/testdata/records/*.ndjson")
	if err != nil || len(files) == 0 {
		t.Fatalf("no pinned record streams (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<24)
		n := 0
		for sc.Scan() {
			n++
			if err := trailer("job-1", append(sc.Bytes(), '\n')); err != nil {
				t.Errorf("%s line %d reads as a trailer: %v", filepath.Base(f), n, err)
			}
		}
		if err := sc.Err(); err != nil || n == 0 {
			t.Errorf("%s: %d lines read (%v)", filepath.Base(f), n, err)
		}
	}

	for _, msg := range []string{"canceled", "canceled before start", "job panicked: <nil>\n\tgoroutine 7 [running]", `a "quoted" & <tagged> message`, ""} {
		var enc bytes.Buffer
		_ = json.NewEncoder(&enc).Encode(map[string]string{"error": msg})
		marshaled, _ := json.Marshal(map[string]string{"error": msg})
		for name, line := range map[string][]byte{"gpowd": enc.Bytes(), "gpowfleet": append(marshaled, '\n')} {
			var je *JobError
			if err := trailer("job-1", line); !errors.As(err, &je) || je.Msg != msg {
				t.Errorf("%s trailer %q reads as %v, want a *JobError with message %q", name, line, err, msg)
			}
		}
	}
}

// planProbes numbers the scenarios planProbe registers.
var planProbes atomic.Int32

// planProbe registers a fresh scenario that counts its Spec calls into
// calls, so each run of a test (-count=N) starts from an unplanned one:
// JobRequest.Plan memoizes plans per process.
func planProbe(calls *atomic.Int32) string {
	name := fmt.Sprintf("svcplans-%d", planProbes.Add(1))
	sweep.Register(sweep.Scenario{
		Name: name, Title: "service-test plan-counting scenario",
		Spec: func() *sweep.Spec {
			calls.Add(1)
			return &sweep.Spec{
				Name:  name,
				Title: "service-test plan-counting scenario",
				Axes:  []sweep.Axis{{Name: "v", Values: []sweep.Value{{Name: "a"}, {Name: "b"}}}},
				Base:  config.GT240,
				Workload: func(*sweep.Cell) (*sweep.Workload, error) {
					return &sweep.Workload{Name: name, Build: func(*config.GPU) (*sweep.Instance, error) {
						l, mem := blockKernel()
						return &sweep.Instance{Mem: mem, Units: []sweep.Unit{{Name: l.Prog.Name, Launch: l}}}, nil
					}}, nil
				},
				Sim: true,
			}
		},
		Reduce: func([]*sweep.CellRecord, sweep.Filter) (*sweep.Report, error) {
			return &sweep.Report{Scenario: name}, nil
		},
	})
	return name
}

// Recovering N journaled jobs plans each distinct request once, and the
// jobs of one request share its plan.
func TestRecoveryPlansEachRequestOnce(t *testing.T) {
	var calls atomic.Int32
	name := planProbe(&calls)
	reqs := []sweep.JobRequest{
		{Scenario: name},
		{Scenario: name, Filter: sweep.Filter{"v": {"a"}}},
	}
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 6
	for i := 1; i <= jobs; i++ {
		st.Append(journalEntry{Submit: &storedJob{
			ID: JobID(i), Request: reqs[i%len(reqs)], State: StateQueued, Created: time.Now(),
		}})
		st.Append(journalEntry{State: &stateEntry{ID: JobID(i), State: StateCanceled, Error: "canceled before start", At: time.Now()}})
	}
	st.Close()

	m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Jobs(); len(got) != jobs {
		t.Fatalf("recovered %d jobs, want %d", len(got), jobs)
	}
	if n := calls.Load(); n != int32(len(reqs)) {
		t.Errorf("recovering %d jobs of %d distinct requests called Spec %d times, want %d", jobs, len(reqs), n, len(reqs))
	}
	for i, j := range m.Jobs() {
		first, _ := m.Job(JobID(1 + i%len(reqs)))
		if j.plan != first.plan {
			t.Errorf("%s and %s submit one request but hold different plans", j.ID(), first.ID())
		}
	}
}
