package fleet

import (
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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/config"
	_ "gpusimpow/internal/experiments" // registers every scenario
	"gpusimpow/internal/service"
	"gpusimpow/internal/sweep"
)

// testScenario is the cheapest registered real sweep: 5 cells, 1 timing
// group, with a reduction — everything a fleet job needs.
const testScenario = "ablation-processnode"

// blockGate, while armed, holds every workload build of the fleetblock
// scenario (testScenario under another name): a fleetblock job occupies a
// backend worker for as long as a test needs. Unarmed, builds pass
// straight through, so scenario listings and cost estimates still work.
var blockGate atomic.Pointer[chan struct{}]

func init() {
	base, _ := sweep.Lookup(testScenario)
	sweep.Register(sweep.Scenario{
		Name: "fleetblock", Title: "fleet-test blocking scenario",
		Reduce: base.Reduce,
		Spec: func() *sweep.Spec {
			sp := base.Spec()
			sp.Name = "fleetblock"
			workload := sp.Workload
			sp.Workload = func(c *sweep.Cell) (*sweep.Workload, error) {
				w, err := workload(c)
				if err != nil {
					return nil, err
				}
				blocked := *w
				blocked.Build = func(cfg *config.GPU) (*sweep.Instance, error) {
					if gate := blockGate.Load(); gate != nil {
						<-*gate
					}
					return w.Build(cfg)
				}
				return &blocked, nil
			}
			return sp
		},
	})
}

// holdBuilds arms blockGate until the returned open is called; calls
// after the first do nothing.
func holdBuilds() (open func()) {
	gate := make(chan struct{})
	blockGate.Store(&gate)
	var once sync.Once
	return func() {
		once.Do(func() {
			blockGate.Store(nil)
			close(gate)
		})
	}
}

// backendFixture is one gpowd-equivalent: a Manager behind its HTTP API.
type backendFixture struct {
	name string
	m    *service.Manager
	srv  *httptest.Server
}

// newTestFleet stands up n in-process backends and a router over them.
func newTestFleet(t *testing.T, n int, mutate func(*Options)) (*Router, *httptest.Server, []*backendFixture) {
	t.Helper()
	var fixtures []*backendFixture
	var specs []BackendSpec
	for i := 0; i < n; i++ {
		m := service.NewManager(service.Options{MaxConcurrent: 2})
		srv := httptest.NewServer(service.NewServer(m))
		name := fmt.Sprintf("b%d", i)
		fixtures = append(fixtures, &backendFixture{name: name, m: m, srv: srv})
		specs = append(specs, BackendSpec{Name: name, URL: srv.URL})
	}
	opts := Options{
		Backends:      specs,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		ProbeFails:    2,
		Logf:          t.Logf,
	}
	if mutate != nil {
		mutate(&opts)
	}
	rt, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	t.Cleanup(func() {
		rtSrv.Close()
		rt.Close()
		for _, f := range fixtures {
			f.srv.Close()
			f.m.Close()
		}
	})
	return rt, rtSrv, fixtures
}

// --- ring stability (satellite: consistent-hash churn bounds) ---

// Removing a backend moves only the keys it owned; every other key keeps
// its assignment. Adding one steals keys only for itself. This is the
// property that makes a backend loss a bounded re-dispatch instead of a
// fleet-wide simcache flush.
func TestRingStabilityUnderChurn(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("timingkey-%d/workload-%d", i, i%7)
	}
	full := NewRing(names)
	base := map[string]string{}
	for _, k := range keys {
		base[k] = full.Lookup(k, nil)
	}
	// Sanity: every backend owns something.
	owned := map[string]int{}
	for _, o := range base {
		owned[o]++
	}
	for _, n := range names {
		if owned[n] == 0 {
			t.Fatalf("backend %s owns no keys out of %d", n, len(keys))
		}
	}

	for drop := range names {
		survivors := append(append([]string{}, names[:drop]...), names[drop+1:]...)
		shrunk := NewRing(survivors)
		moved := 0
		for _, k := range keys {
			got := shrunk.Lookup(k, nil)
			if base[k] == names[drop] {
				moved++
				if got == names[drop] {
					t.Fatalf("dropped backend %s still owns %q", names[drop], k)
				}
			} else if got != base[k] {
				t.Errorf("removing %s moved key %q: %s -> %s (only the departed share may move)",
					names[drop], k, base[k], got)
			}
		}
		if moved != owned[names[drop]] {
			t.Errorf("removing %s moved %d keys, want exactly its %d", names[drop], moved, owned[names[drop]])
		}
	}

	grown := NewRing(append(append([]string{}, names...), "zeta"))
	for _, k := range keys {
		if got := grown.Lookup(k, nil); got != base[k] && got != "zeta" {
			t.Errorf("adding zeta moved key %q to %s (may only move to the newcomer)", k, got)
		}
	}
}

// Lookup with a predicate falls through dead owners to the next live
// backend and returns "" only when nothing is admitted.
func TestRingLookupSkipsRejected(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	key := "some/routing-key"
	owner := r.Lookup(key, nil)
	next := r.Lookup(key, func(n string) bool { return n != owner })
	if next == owner || next == "" {
		t.Fatalf("fallback owner %q (ring owner %q)", next, owner)
	}
	if got := r.Lookup(key, func(string) bool { return false }); got != "" {
		t.Errorf("all-rejected lookup returned %q, want empty", got)
	}
}

// --- helpers driving the router's HTTP surface ---

func routerClient(srv *httptest.Server) *service.Client {
	return &service.Client{Base: srv.URL, HTTP: srv.Client(), RetryBase: time.Millisecond, RetryMax: 20 * time.Millisecond}
}

func fleetState(t *testing.T, srv *httptest.Server) FleetStatus {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func assignmentOf(t *testing.T, srv *httptest.Server, fleetID string) AssignmentStatus {
	t.Helper()
	for _, a := range fleetState(t, srv).Assignments {
		if a.ID == fleetID {
			return a
		}
	}
	t.Fatalf("no assignment for %s", fleetID)
	return AssignmentStatus{}
}

func waitDone(t *testing.T, c *service.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err == nil && st.State == service.StateDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done (last: %+v, %v)", id, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitPruned waits until the backend's manager m has pruned its job bid.
func waitPruned(t *testing.T, m *service.Manager, bid string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, ok := m.Job(bid); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend job %s never pruned", bid)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawStream reads an entire NDJSON endpoint body.
func rawStream(t *testing.T, base *http.Client, url string) []byte {
	t.Helper()
	resp, err := base.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return body
}

// --- routing + proxying ---

// A job submitted through the router lands on the ring owner, streams
// byte-identically to a single-node run, and reports byte-identically.
func TestRouterProxiesByteIdentical(t *testing.T) {
	_, rtSrv, _ := newTestFleet(t, 2, nil)
	c := routerClient(rtSrv)
	req := sweep.JobRequest{Scenario: testScenario}

	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Errorf("fleet job ID %q, want router-namespaced job-1", st.ID)
	}
	a := assignmentOf(t, rtSrv, st.ID)
	_, wantOwner, err := Owner([]string{"b0", "b1"}, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != wantOwner {
		t.Errorf("assigned to %s, ring owner is %s", a.Backend, wantOwner)
	}
	waitDone(t, c, st.ID)

	// Reference run on a pristine single node.
	ref := service.NewManager(service.Options{MaxConcurrent: 2})
	defer ref.Close()
	refSrv := httptest.NewServer(service.NewServer(ref))
	defer refSrv.Close()
	refC := &service.Client{Base: refSrv.URL, HTTP: refSrv.Client()}
	refSt, err := refC.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, refC, refSt.ID)

	cells := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st.ID+"/cells")
	refCells := rawStream(t, refSrv.Client(), refSrv.URL+"/v1/jobs/"+refSt.ID+"/cells")
	if !bytes.Equal(cells, refCells) {
		t.Errorf("proxied cell stream differs from single-node run (%d vs %d bytes)", len(cells), len(refCells))
	}
	report := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st.ID+"/report")
	refReport := rawStream(t, refSrv.Client(), refSrv.URL+"/v1/jobs/"+refSt.ID+"/report")
	if !bytes.Equal(report, refReport) {
		t.Errorf("proxied report differs from single-node run:\n%s\n--- vs ---\n%s", report, refReport)
	}
}

// A client Idempotency-Key replayed against the router returns the same
// fleet job instead of dispatching a duplicate.
func TestRouterClientIdempotency(t *testing.T) {
	_, rtSrv, fixtures := newTestFleet(t, 2, nil)
	c := routerClient(rtSrv)
	req := sweep.JobRequest{Scenario: testScenario}

	first, err := c.SubmitKeyed(context.Background(), req, "client-key-1")
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.SubmitKeyed(context.Background(), req, "client-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != again.ID {
		t.Errorf("replayed submit created %s, want %s", again.ID, first.ID)
	}
	total := 0
	for _, f := range fixtures {
		total += len(f.m.Jobs())
	}
	if total != 1 {
		t.Errorf("%d backend jobs exist, want 1", total)
	}
}

// --- failover ---

// Dropping the backend mid-stream (faultpoint) re-dispatches the job to
// the survivor and the riding client's stream comes through byte-identical
// to an uninterrupted single-node run — the unit-level ci-fleet drill.
func TestFailoverMidStreamByteIdentical(t *testing.T) {
	t.Setenv("GPUSIMPOW_FAULTPOINT", service.FaultDropBackendMidStream.String()+":skip=1")

	_, rtSrv, fixtures := newTestFleet(t, 2, nil)
	c := routerClient(rtSrv)
	req := sweep.JobRequest{Scenario: testScenario}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := assignmentOf(t, rtSrv, st.ID)

	// The ride: one GET held open across the internal backend swap. The
	// faultpoint drops the backend connection after the 2nd forwarded
	// line; the router must mark it dead, re-dispatch, and resume the
	// stream from line 2 against the survivor.
	cells := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st.ID+"/cells")
	lines := bytes.Split(bytes.TrimSpace(cells), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("rode %d lines, want the scenario's 5 cells:\n%s", len(lines), cells)
	}
	for i, line := range lines {
		var rec sweep.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d undecodable: %v", i, err)
		}
		if rec.Index != i {
			t.Fatalf("line %d carries index %d — duplicate or dropped cell across the swap", i, rec.Index)
		}
	}

	after := assignmentOf(t, rtSrv, st.ID)
	if after.Backend == before.Backend {
		t.Errorf("job still on %s; faultpoint should have forced failover", before.Backend)
	}

	// Byte-identity against an untouched single node.
	if !bytes.Equal(cells, singleNodeCells(t, req)) {
		t.Errorf("stream that rode through failover differs from single-node run")
	}

	// The exactly-once guarantee: one backend job per fleet job per home.
	for _, f := range fixtures {
		if n := len(f.m.Jobs()); n > 1 {
			t.Errorf("backend %s holds %d jobs, want at most 1", f.name, n)
		}
	}
}

// Severing the router's proxied stream (the sever-proxied-stream fault,
// armed on the router) breaks only the client's connection: the riding
// service.Client resumes through the router with ?from=N, every record
// arrives once and in plan order, byte-identical to a single-node run,
// and the job keeps its healthy backend with no re-dispatch. The backends
// arm the same spec but never reach this fault.
func TestSeverProxiedStreamResumes(t *testing.T) {
	t.Setenv("GPUSIMPOW_FAULTPOINT", service.FaultSeverProxiedStream.String()+":skip=1")
	rt, rtSrv, fixtures := newTestFleet(t, 2, nil)

	var (
		mu    sync.Mutex
		froms []string // the ?from= of every /cells request the client sent
	)
	inner := rtSrv.Client().Transport
	c := routerClient(rtSrv)
	c.HTTP = &http.Client{Transport: transportFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasSuffix(r.URL.Path, "/cells") {
			mu.Lock()
			froms = append(froms, r.URL.Query().Get("from"))
			mu.Unlock()
		}
		return inner.RoundTrip(r)
	})}
	req := sweep.JobRequest{Scenario: testScenario}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := assignmentOf(t, rtSrv, st.ID)

	var cells []byte
	at := func() (*service.Client, string) { return c, st.ID }
	if err := c.Follow(context.Background(), 0, at, nil, func(line []byte) error {
		cells = append(cells, line...)
		return nil
	}); err != nil {
		t.Fatalf("ride through the router: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(froms) < 2 || froms[0] != "0" {
		t.Fatalf("/cells requests from=%v: want a first read from 0 and a resume", froms)
	}
	for _, f := range froms[1:] {
		if f == "0" {
			t.Errorf("/cells requests from=%v: the client restarted instead of resuming", froms)
		}
	}
	for i, line := range bytes.Split(bytes.TrimSpace(cells), []byte("\n")) {
		var rec sweep.CellRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Index != i {
			t.Fatalf("line %d: index %d, %v — duplicate or dropped cell across the resume", i, rec.Index, err)
		}
	}

	if !bytes.Equal(cells, singleNodeCells(t, req)) {
		t.Errorf("stream resumed through the router differs from a single-node run")
	}

	if after := assignmentOf(t, rtSrv, st.ID); after != before {
		t.Errorf("assignment moved from %+v to %+v: a severed client stream must not re-dispatch", before, after)
	}
	total := 0
	for _, f := range fixtures {
		total += len(f.m.Jobs())
		if s := rt.backends[f.name].State(); s != StateHealthy {
			t.Errorf("backend %s is %s after a severed client stream, want healthy", f.name, s)
		}
	}
	if total != 1 {
		t.Errorf("%d backend jobs exist, want 1", total)
	}
}

// singleNodeCells runs req on a fresh single gpowd and returns its raw
// NDJSON cell stream: the byte-identity reference for routed streams.
func singleNodeCells(t *testing.T, req sweep.JobRequest) []byte {
	t.Helper()
	ref := service.NewManager(service.Options{MaxConcurrent: 2})
	defer ref.Close()
	refSrv := httptest.NewServer(service.NewServer(ref))
	defer refSrv.Close()
	refC := &service.Client{Base: refSrv.URL, HTTP: refSrv.Client()}
	refSt, err := refC.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, refC, refSt.ID)
	return rawStream(t, refSrv.Client(), refSrv.URL+"/v1/jobs/"+refSt.ID+"/cells")
}

// transportFunc adapts a function to http.RoundTripper.
type transportFunc func(*http.Request) (*http.Response, error)

func (f transportFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// NewRouter refuses an unknown fault and a malformed spec before it
// probes anything, listing the declared faults.
func TestNewRouterRefusesBadFaultSpecs(t *testing.T) {
	for _, spec := range []string{"typo-point", "crash-after-record:3"} {
		t.Setenv("GPUSIMPOW_FAULTPOINT", spec)
		rt, err := NewRouter(Options{Backends: []BackendSpec{{Name: "b0", URL: "http://127.0.0.1:1"}}})
		if err == nil {
			rt.Close()
			t.Fatalf("NewRouter under %q succeeded", spec)
		}
		for _, f := range []service.Fault{
			service.FaultCrashAfterRecord, service.FaultDropConnectionMidStream, service.FaultPanicInReduce,
			service.FaultBlackholeProbe, service.FaultSeverProxiedStream, service.FaultDropBackendMidStream,
		} {
			if !strings.Contains(err.Error(), f.String()) {
				t.Errorf("%q: error %q does not list %s", spec, err, f)
			}
		}
	}
}

// Concurrent re-dispatchers (probe-loop failover racing a stream proxy's
// synchronous verdict) move a job exactly once: one submission reaches
// the survivor, every other caller observes the done CAS.
func TestRedispatchExactlyOnce(t *testing.T) {
	rt, rtSrv, fixtures := newTestFleet(t, 2, nil)
	c := routerClient(rtSrv)
	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: testScenario})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)
	a := assignmentOf(t, rtSrv, st.ID)
	from := a.Backend

	rt.mu.Lock()
	j := rt.jobs[st.ID]
	rt.mu.Unlock()
	rt.backends[from].markDead() // as every failover finds it

	var moved atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rt.redispatch(j, from, a.BackendID) {
				moved.Add(1)
			}
		}()
	}
	wg.Wait()
	if moved.Load() != 1 {
		t.Errorf("%d re-dispatches moved the job, want exactly 1", moved.Load())
	}
	var survivor *backendFixture
	for _, f := range fixtures {
		if f.name != from {
			survivor = f
		}
	}
	if n := len(survivor.m.Jobs()); n != 1 {
		t.Errorf("survivor %s holds %d jobs, want exactly 1", survivor.name, n)
	}
}

// A job canceled while queued ends its stream with the backend's
// {"error": ...} trailer. Through the router the stream, trailer
// included, is byte-identical to the backend's own, and the client
// returns the same error either way.
func TestRouterForwardsCancelTrailer(t *testing.T) {
	gate := make(chan struct{})
	blockGate.Store(&gate)
	defer func() {
		blockGate.Store(nil)
		close(gate)
	}()

	_, rtSrv, fixtures := newTestFleet(t, 1, nil)
	backend := fixtures[0]
	// Two fleetblock jobs hold both of the backend's workers, so the job
	// the router dispatches next queues behind them.
	for i := 0; i < 2; i++ {
		j, err := backend.m.Submit(sweep.JobRequest{Scenario: "fleetblock"})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.m.Cancel(j.ID())
	}
	c := routerClient(rtSrv)
	ctx := context.Background()
	st, err := c.Submit(ctx, sweep.JobRequest{Scenario: testScenario})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	bid := assignmentOf(t, rtSrv, st.ID).BackendID

	direct := rawStream(t, backend.srv.Client(), backend.srv.URL+"/v1/jobs/"+bid+"/cells")
	if !bytes.HasPrefix(direct, []byte(`{"error":`)) || bytes.Count(direct, []byte("\n")) != 1 {
		t.Fatalf("backend stream of a canceled queued job = %q, want one error trailer", direct)
	}
	if proxied := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st.ID+"/cells"); !bytes.Equal(proxied, direct) {
		t.Errorf("proxied stream %q, backend's own %q", proxied, direct)
	}

	streamErr := func(c *service.Client, id string) string {
		err := c.StreamCells(ctx, id, func(*sweep.CellRecord) error { return nil })
		if err == nil {
			t.Fatalf("stream of canceled job %s returned nil", id)
		}
		return err.Error()
	}
	// The error names the job by the ID its caller used.
	want := strings.ReplaceAll(streamErr(&service.Client{Base: backend.srv.URL, HTTP: backend.srv.Client()}, bid), bid, st.ID)
	if got := streamErr(c, st.ID); got != want {
		t.Errorf("through the router StreamCells returned %q, directly %q", got, want)
	}
}

// lostJobBackend fakes a backend that loses its one job, job-7, mid-stream
// (a daemon restarted without -state-dir): every /cells?from=0 sends lines
// and then breaks the connection while the job still runs, as gpowd breaks
// a stream it cannot finish, and from then on the job's status and its
// cells at any other offset answer 404. Unless retakes is set, it accepts the
// router's first submission only and re-submissions answer 503, so a
// re-dispatch has to look elsewhere; with retakes it accepts each
// re-submission as job-7 and loses it again.
func lostJobBackend(t *testing.T, lines [][]byte, retakes bool) *httptest.Server {
	status := service.JobStatus{ID: "job-7", Scenario: testScenario, State: service.StateRunning, Cells: 5}
	var submits atomic.Int32
	var lost atomic.Bool
	gone := func(w http.ResponseWriter) {
		service.WriteError(w, http.StatusNotFound, errors.New("no job \"job-7\""))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, service.HealthInfo{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1) > 1 && !retakes {
			service.WriteError(w, http.StatusServiceUnavailable, service.ErrDraining)
			return
		}
		lost.Store(false)
		service.WriteJSON(w, http.StatusAccepted, status)
	})
	mux.HandleFunc("GET /v1/jobs/job-7", func(w http.ResponseWriter, r *http.Request) {
		if lost.Load() {
			gone(w)
			return
		}
		service.WriteJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /v1/jobs/job-7/cells", func(w http.ResponseWriter, r *http.Request) {
		defer lost.Store(true)
		if r.URL.Query().Get("from") != "0" {
			gone(w)
			return
		}
		for _, l := range lines {
			_, _ = w.Write(l)
		}
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newRouter starts a router over the given backends. Its probe loop stays
// idle, so only its first probe round, which marks an unreachable backend
// dead, and the requests decide a backend's fate.
func newRouter(t *testing.T, specs ...BackendSpec) *httptest.Server {
	rt, err := NewRouter(Options{Backends: specs, ProbeInterval: time.Hour, ProbeFails: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return srv
}

// A backend that answers 404 for the job it was assigned has lost it: the
// router re-submits that job under its idempotency key, here to the real
// backend beside it, and follows it there from the line it reached. The
// riding client gets every record, byte-identical to a single-node run.
func TestRouterRedispatchesLostJob(t *testing.T) {
	m := service.NewManager(service.Options{MaxConcurrent: 2})
	defer m.Close()
	live := httptest.NewServer(service.NewServer(m))
	defer live.Close()
	direct := &service.Client{Base: live.URL, HTTP: live.Client()}
	req := sweep.JobRequest{Scenario: testScenario}
	refSt, err := direct.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, direct, refSt.ID)
	want := rawStream(t, live.Client(), live.URL+"/v1/jobs/"+refSt.ID+"/cells")
	lines := bytes.SplitAfter(want, []byte("\n"))[:2]

	// The fake takes the ring owner's name, so the job lands on it first.
	_, owner, err := Owner([]string{"b0", "b1"}, req)
	if err != nil {
		t.Fatal(err)
	}
	other := map[string]string{"b0": "b1", "b1": "b0"}[owner]
	fake := lostJobBackend(t, lines, false)
	rtSrv := newRouter(t, BackendSpec{Name: owner, URL: fake.URL}, BackendSpec{Name: other, URL: live.URL})

	st, err := routerClient(rtSrv).Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a := assignmentOf(t, rtSrv, st.ID); a.Backend != owner || a.BackendID != "job-7" {
		t.Fatalf("assignment %+v, want %s/job-7", a, owner)
	}
	if got := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st.ID+"/cells"); !bytes.Equal(got, want) {
		t.Errorf("stream through the lost job's re-dispatch:\n%s\nwant the single-node run:\n%s", got, want)
	}
	if a := assignmentOf(t, rtSrv, st.ID); a.Backend != other {
		t.Errorf("job left on %s after its backend lost it, want it on %s", a.Backend, other)
	}
}

// A backend restarted without -state-dir numbers its jobs from job-1
// again. Re-dispatching one lost job there reissues an ID another fleet
// job still records: the router re-dispatches that job as well, so each
// fleet job keeps serving its own request's records, byte-identical to
// the run before the restart.
func TestRouterReissuedBackendJobID(t *testing.T) {
	var live atomic.Value // the http.Handler of the backend's current process
	start := func() *service.Manager {
		m := service.NewManager(service.Options{MaxConcurrent: 2})
		t.Cleanup(m.Close)
		live.Store(service.NewServer(m))
		return m
	}
	start()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer backend.Close()
	rtSrv := newRouter(t, BackendSpec{Name: "b0", URL: backend.URL})
	c := routerClient(rtSrv)

	scenarios := []string{testScenario, "fleetblock"}
	var ids []string
	want := map[string][]byte{}
	for _, sc := range scenarios {
		st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, st.ID)
		ids = append(ids, st.ID)
		want[st.ID] = rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st.ID+"/cells")
	}

	m := start() // the restart: same address, no state
	// Reading the second job first re-dispatches it as the new job-1,
	// the ID the first fleet job still records.
	for i := len(ids) - 1; i >= 0; i-- {
		st, err := c.Job(context.Background(), ids[i])
		if err != nil {
			t.Fatalf("status of %s after the restart: %v", ids[i], err)
		}
		if st.Scenario != scenarios[i] {
			t.Errorf("%s reads as a %s job, want %s", ids[i], st.Scenario, scenarios[i])
		}
	}
	for _, id := range ids {
		waitDone(t, c, id)
		if got := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+id+"/cells"); !bytes.Equal(got, want[id]) {
			t.Errorf("%s after the restart streams other bytes than before it:\n%s", id, got)
		}
	}
	if n := len(m.Jobs()); n != len(ids) {
		t.Errorf("restarted backend holds %d jobs, want %d", n, len(ids))
	}
}

// A job its backend pruned answers 410 there and stays pruned: reading it
// through the router does not run it again, its status through the router
// is a 410, and the router's list leaves it out, as gpowd's own list does.
// The first read that meets the 410, a status read or a list, makes the
// router forget the job: it leaves the routing table, later lists send
// the backend no request for it, and its ID answers 410 from the router's
// counter. Neither read probes the backend's health: a 410 is an answer.
func TestRouterLeavesPrunedJob(t *testing.T) {
	open := holdBuilds()
	m := service.NewManager(service.Options{MaxConcurrent: 1, RetainJobs: 1})
	defer m.Close()
	defer open()
	var probes atomic.Int64
	var mu sync.Mutex
	reqs := map[string]int{} // backend requests by path
	api := service.NewServer(m)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			probes.Add(1)
		}
		mu.Lock()
		reqs[r.URL.Path]++
		mu.Unlock()
		api.ServeHTTP(w, r)
	}))
	defer backend.Close()
	requests := func(bid string) int {
		mu.Lock()
		defer mu.Unlock()
		return reqs["/v1/jobs/"+bid]
	}
	rtSrv := newRouter(t, BackendSpec{Name: "b0", URL: backend.URL})
	c := routerClient(rtSrv)
	ctx := context.Background()

	// A fleetblock job holds the one worker, so the routed jobs queue and
	// the cancels catch them.
	if _, err := m.Submit(sweep.JobRequest{Scenario: "fleetblock"}); err != nil {
		t.Fatal(err)
	}
	var canceled []*service.JobStatus
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, sweep.JobRequest{Scenario: testScenario, Label: fmt.Sprint("canceled-", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Cancel(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		canceled = append(canceled, st)
	}
	var bids []string
	for _, st := range canceled {
		bids = append(bids, assignmentOf(t, rtSrv, st.ID).BackendID)
	}
	open()
	later, err := c.Submit(ctx, sweep.JobRequest{Scenario: testScenario, Label: "later"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, later.ID)

	var env map[string]string
	for _, bid := range bids {
		waitPruned(t, m, bid)
		if code := callJSON(t, backend, http.MethodGet, "/v1/jobs/"+bid, &env); code != http.StatusGone {
			t.Errorf("backend answers HTTP %d for the pruned %s, want 410", code, bid)
		}
	}
	before := probes.Load()
	gone := func(id string) {
		t.Helper()
		var herr *service.HTTPError
		if st, err := c.Job(ctx, id); !errors.As(err, &herr) || herr.Code != http.StatusGone {
			t.Errorf("status of the pruned %s through the router = %+v, %v; want HTTP 410", id, st, err)
		}
	}
	forgotten := func(id string) {
		t.Helper()
		for _, a := range fleetState(t, rtSrv).Assignments {
			if a.ID == id {
				t.Errorf("the router still routes the pruned %s: %+v", id, a)
			}
		}
	}
	list := func() {
		t.Helper()
		var rows []service.JobStatus
		callJSON(t, rtSrv, http.MethodGet, "/v1/jobs", &rows)
		if len(rows) != 1 || rows[0].ID != later.ID || rows[0].State != service.StateDone {
			t.Errorf("router's job list %+v, want only the later job, done", rows)
		}
	}

	// A status read forgets the first pruned job, the list the second.
	gone(canceled[0].ID)
	forgotten(canceled[0].ID)
	list()
	forgotten(canceled[1].ID)
	seen := []int{requests(bids[0]), requests(bids[1])}
	list()
	for i, bid := range bids {
		if n := requests(bid) - seen[i]; n != 0 {
			t.Errorf("a list after %s was forgotten sent the backend %d request(s) for its %s", canceled[i].ID, n, bid)
		}
	}
	for _, st := range canceled {
		gone(st.ID)
	}
	for i, bid := range bids {
		if n := requests(bid) - seen[i]; n != 0 {
			t.Errorf("status reads of the forgotten %s sent the backend %d request(s); the router's counter answers", canceled[i].ID, n)
		}
	}
	if n := probes.Load() - before; n != 0 {
		t.Errorf("reading the pruned jobs probed the backend's health %d times; a 410 is an answer", n)
	}
	var herr *service.HTTPError
	if _, err := c.Job(ctx, "job-4"); !errors.As(err, &herr) || herr.Code != http.StatusNotFound {
		t.Errorf("status of job-4, beyond the router's numbering = %v; want HTTP 404", err)
	}
	if sts := m.Statuses(); len(sts) != 1 || sts[0].Label != "later" {
		t.Errorf("backend holds %+v after the pruned jobs were read, want only the later job", sts)
	}
}

// A router that cannot resume a stream aborts the connection instead of
// inventing an {"error": ...} trailer: the riding client sees a broken
// stream, resumes under its own patience, and when that runs out returns
// an error that is not the job's outcome. That holds whether no backend
// takes the lost job back or its new home loses it again before a line
// comes through.
func TestRouterAbortsStreamItCannotResume(t *testing.T) {
	var lines [][]byte
	for i := 0; i < 2; i++ {
		b, _ := json.Marshal(&sweep.CellRecord{Scenario: testScenario, Index: i})
		lines = append(lines, append(b, '\n'))
	}
	for _, retakes := range []bool{false, true} {
		rtSrv := newRouter(t, BackendSpec{Name: "b0", URL: lostJobBackend(t, lines, retakes).URL})
		c := routerClient(rtSrv)
		st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: testScenario})
		if err != nil {
			t.Fatal(err)
		}

		resp, err := rtSrv.Client().Get(rtSrv.URL + "/v1/jobs/" + st.ID + "/cells")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Errorf("retakes=%v: proxied stream ended cleanly; want an aborted connection", retakes)
		}
		if want := bytes.Join(lines, nil); !bytes.Equal(body, want) {
			t.Errorf("retakes=%v: proxied stream:\n%s\nwant exactly the forwarded lines:\n%s", retakes, body, want)
		}

		n := 0
		err = c.StreamCells(context.Background(), st.ID, func(*sweep.CellRecord) error { n++; return nil })
		var je *service.JobError
		if err == nil || errors.As(err, &je) {
			t.Errorf("retakes=%v: StreamCells through a router that cannot resume = %v, want an error that is not a *JobError", retakes, err)
		}
		if n != len(lines) {
			t.Errorf("retakes=%v: StreamCells delivered %d records, want the %d forwarded", retakes, n, len(lines))
		}
	}
}

// A fleet whose only backend is dead answers 503 wherever it needs one:
// its health, the scenario listing and a submission.
func TestRouterNoLiveBackend(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	rtSrv := newRouter(t, BackendSpec{Name: "b0", URL: gone.URL})
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/healthz", ""},
		{http.MethodGet, "/v1/scenarios", ""},
		{http.MethodPost, "/v1/jobs", `{"scenario":"` + testScenario + `"}`},
	} {
		req, err := http.NewRequest(tc.method, rtSrv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rtSrv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s: HTTP %d, want 503", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// --- drain-aware routing ---

// A drained backend receives no new jobs but keeps serving its in-flight
// work (status, stream, report) — the zero-downtime rollout contract.
func TestDrainAwareRouting(t *testing.T) {
	_, rtSrv, fixtures := newTestFleet(t, 2, nil)
	c := routerClient(rtSrv)
	req := sweep.JobRequest{Scenario: testScenario}

	st1, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	owner := assignmentOf(t, rtSrv, st1.ID).Backend
	waitDone(t, c, st1.ID)

	// Drain the owner.
	resp, err := rtSrv.Client().Post(rtSrv.URL+"/v1/fleet/backends/"+owner+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// New work must route elsewhere even though the drained owner is the
	// affinity home.
	st2, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := assignmentOf(t, rtSrv, st2.ID).Backend; got == owner {
		t.Errorf("new job routed to drained backend %s", owner)
	}

	// The drained backend's existing job still serves end to end.
	if _, err := c.Job(context.Background(), st1.ID); err != nil {
		t.Errorf("status through drained backend: %v", err)
	}
	cells := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/jobs/"+st1.ID+"/cells")
	if n := len(bytes.Split(bytes.TrimSpace(cells), []byte("\n"))); n != 5 {
		t.Errorf("drained backend streamed %d lines, want 5", n)
	}
	if _, err := c.Report(context.Background(), st1.ID); err != nil {
		t.Errorf("report through drained backend: %v", err)
	}

	// Undrain restores routing; with every backend healthy the ring owner
	// takes new work again.
	resp, err = rtSrv.Client().Post(rtSrv.URL+"/v1/fleet/backends/"+owner+"/undrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st3, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := assignmentOf(t, rtSrv, st3.ID).Backend; got != owner {
		t.Errorf("after undrain new job routed to %s, want ring owner %s", got, owner)
	}
	_ = fixtures
}

// --- breaker: blackholed probes trip it, recovery clears it ---

// A backend whose healthz hangs (blackhole faultpoint) reads as dead once
// the failure threshold is crossed, and rejoins as healthy when probes
// start answering again.
func TestBreakerTripsOnBlackholedProbes(t *testing.T) {
	t.Setenv("GPUSIMPOW_FAULTPOINT", service.FaultBlackholeProbe.String()+":times=4")

	rt, _, _ := newTestFleet(t, 1, func(o *Options) {
		o.ProbeInterval = 30 * time.Millisecond
		o.ProbeTimeout = 100 * time.Millisecond
	})
	b := rt.backends["b0"]

	deadline := time.Now().Add(10 * time.Second)
	for b.State() != StateDead {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped on blackholed probes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Faultpoint exhausts after 4 hung probes; the breaker must recover.
	for b.State() != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after probes resumed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- restart recovery ---

// A restarted router recovers job→backend assignments and operator drain
// bits from its journaled routing table: riding clients keep their fleet
// job IDs, and a mid-rollout drain stays in force.
func TestRouterRestartRecoversAssignments(t *testing.T) {
	stateDir := t.TempDir()
	rt, rtSrv, fixtures := newTestFleet(t, 2, func(o *Options) { o.StateDir = stateDir })
	c := routerClient(rtSrv)

	st, err := c.SubmitKeyed(context.Background(), sweep.JobRequest{Scenario: testScenario}, "ck-restart")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)
	before := assignmentOf(t, rtSrv, st.ID)
	resp, err := rtSrv.Client().Post(rtSrv.URL+"/v1/fleet/backends/"+before.Backend+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rtSrv.Close()
	rt.Close()

	specs := make([]BackendSpec, len(fixtures))
	for i, f := range fixtures {
		specs[i] = BackendSpec{Name: f.name, URL: f.srv.URL}
	}
	rt2, err := NewRouter(Options{
		Backends:      specs,
		StateDir:      stateDir,
		ProbeInterval: 50 * time.Millisecond,
		ProbeFails:    2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	rtSrv2 := httptest.NewServer(rt2)
	defer rtSrv2.Close()
	c2 := routerClient(rtSrv2)

	after := assignmentOf(t, rtSrv2, st.ID)
	if after.Backend != before.Backend || after.BackendID != before.BackendID {
		t.Errorf("recovered assignment %+v, want %+v", after, before)
	}
	got, err := c2.Job(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.State != service.StateDone {
		t.Errorf("recovered job status %+v", got)
	}
	if rt2.backends[before.Backend].State() != StateDraining {
		t.Errorf("drain bit lost across restart: %s is %s", before.Backend, rt2.backends[before.Backend].State())
	}
	// The client idempotency map survives too.
	again, err := c2.SubmitKeyed(context.Background(), sweep.JobRequest{Scenario: testScenario}, "ck-restart")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID {
		t.Errorf("replayed client key created %s, want recovered %s", again.ID, st.ID)
	}
}

// A client retrying a keyed submission whose fleet job its backend has
// since pruned gets a new job, as gpowd gives for a key it pruned with
// its job: the replay meets the 410, the router forgets the job and its
// key, and the request is submitted anew.
func TestKeyedReplayOfPrunedJobSubmitsAnew(t *testing.T) {
	m := service.NewManager(service.Options{MaxConcurrent: 1, RetainJobs: 1})
	defer m.Close()
	backend := httptest.NewServer(service.NewServer(m))
	defer backend.Close()
	rtSrv := newRouter(t, BackendSpec{Name: "b0", URL: backend.URL})
	c := routerClient(rtSrv)
	ctx := context.Background()
	req := sweep.JobRequest{Scenario: testScenario}

	first, err := c.SubmitKeyed(ctx, req, "ck-pruned")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, first.ID)
	bid := assignmentOf(t, rtSrv, first.ID).BackendID
	if _, err := m.Submit(sweep.JobRequest{Scenario: testScenario, Label: "direct"}); err != nil {
		t.Fatal(err)
	}
	waitPruned(t, m, bid)

	again, err := c.SubmitKeyed(ctx, req, "ck-pruned")
	if err != nil {
		t.Fatalf("keyed retry after the prune: %v", err)
	}
	if again.ID == first.ID {
		t.Errorf("keyed retry after the prune replayed the pruned %s", first.ID)
	}
	if a := fleetState(t, rtSrv).Assignments; len(a) != 1 || a[0].ID != again.ID {
		t.Errorf("routing table %+v, want only the new %s", a, again.ID)
	}
}

// A restarted router recovers its table minus the jobs it forgot, from
// the compacted snapshot after Close and from the journal alone after a
// crash. The forgotten job is the newest fleet job, so only an ID counter
// that counts forgotten assignments keeps its ID from being issued again:
// it answers 410, and the next submission gets a fresh, higher ID.
func TestRouterRestartForgetsPrunedJob(t *testing.T) {
	open := holdBuilds()
	defer open()
	for _, crash := range []bool{false, true} {
		stateDir := t.TempDir()
		m := service.NewManager(service.Options{MaxConcurrent: 2, RetainJobs: 1})
		t.Cleanup(m.Close) // after open: Close waits for the fleetblock job
		backend := httptest.NewServer(service.NewServer(m))
		defer backend.Close()
		opts := Options{Backends: []BackendSpec{{Name: "b0", URL: backend.URL}}, StateDir: stateDir, ProbeInterval: time.Hour, Logf: t.Logf}
		rt, err := NewRouter(opts)
		if err != nil {
			t.Fatal(err)
		}
		rtSrv := httptest.NewServer(rt)
		c := routerClient(rtSrv)
		ctx := context.Background()

		// The fleetblock job stays running behind the gate, so the
		// backend's retention prunes the newer fleet job once a job
		// submitted to the backend directly finishes after it.
		kept, err := c.Submit(ctx, sweep.JobRequest{Scenario: "fleetblock"})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := c.Submit(ctx, sweep.JobRequest{Scenario: testScenario})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, c, pruned.ID)
		if _, err := m.Submit(sweep.JobRequest{Scenario: testScenario, Label: "direct"}); err != nil {
			t.Fatal(err)
		}
		waitPruned(t, m, assignmentOf(t, rtSrv, pruned.ID).BackendID)
		var herr *service.HTTPError
		if _, err := c.Job(ctx, pruned.ID); !errors.As(err, &herr) || herr.Code != http.StatusGone {
			t.Fatalf("crash=%v: status of the pruned %s = %v, want HTTP 410", crash, pruned.ID, err)
		}
		want := fleetState(t, rtSrv).Assignments
		if len(want) != 1 || want[0].ID != kept.ID {
			t.Fatalf("crash=%v: table after the forget %+v, want only %s", crash, want, kept.ID)
		}
		if crash {
			rt.store.log.Freeze() // the crash image: no compaction at Close
		}
		rtSrv.Close()
		rt.Close()

		rt2, err := NewRouter(opts)
		if err != nil {
			t.Fatal(err)
		}
		rtSrv2 := httptest.NewServer(rt2)
		c2 := routerClient(rtSrv2)
		if got := fleetState(t, rtSrv2).Assignments; len(got) != 1 || got[0] != want[0] {
			t.Errorf("crash=%v: recovered table %+v, want %+v", crash, got, want)
		}
		if _, err := c2.Job(ctx, pruned.ID); !errors.As(err, &herr) || herr.Code != http.StatusGone {
			t.Errorf("crash=%v: status of the forgotten %s after the restart = %v, want HTTP 410", crash, pruned.ID, err)
		}
		next, err := c2.Submit(ctx, sweep.JobRequest{Scenario: testScenario, Label: "next"})
		if err != nil {
			t.Fatal(err)
		}
		if next.ID != "job-3" {
			t.Errorf("crash=%v: the first submission after the restart got %s, want job-3", crash, next.ID)
		}
		rtSrv2.Close()
		rt2.Close()
	}
}

// --- read-only and control endpoints ---

// callJSON sends one request to the router and decodes its JSON body,
// returning the status code.
func callJSON(t *testing.T, srv *httptest.Server, method, path string, v any) int {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp.StatusCode
}

// The router's own endpoints over a healthy fleet: healthz summarizes
// the breakers, scenarios relays a backend's listing byte for byte,
// listJobs reports every fleet job under its fleet ID, and cancelJob
// answers with the job's fleet-namespaced status.
func TestRouterReadEndpoints(t *testing.T) {
	_, rtSrv, fixtures := newTestFleet(t, 2, nil)

	var health struct {
		Status   string           `json:"status"`
		Backends map[string]State `json:"backends"`
	}
	if code := callJSON(t, rtSrv, http.MethodGet, "/v1/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: HTTP %d %+v, want 200 ok", code, health)
	}
	for _, f := range fixtures {
		if health.Backends[f.name] != StateHealthy {
			t.Errorf("healthz reports %s as %q, want healthy", f.name, health.Backends[f.name])
		}
	}

	listing := rawStream(t, rtSrv.Client(), rtSrv.URL+"/v1/scenarios")
	if want := rawStream(t, fixtures[0].srv.Client(), fixtures[0].srv.URL+"/v1/scenarios"); !bytes.Equal(listing, want) {
		t.Errorf("proxied scenario listing differs from a backend's:\n%s\n--- vs ---\n%s", listing, want)
	}

	c := routerClient(rtSrv)
	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: testScenario})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)

	var jobs []service.JobStatus
	if code := callJSON(t, rtSrv, http.MethodGet, "/v1/jobs", &jobs); code != http.StatusOK {
		t.Errorf("listJobs: HTTP %d", code)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID || jobs[0].State != service.StateDone {
		t.Errorf("listJobs = %+v, want the one done job %s", jobs, st.ID)
	}

	var canceled service.JobStatus
	if code := callJSON(t, rtSrv, http.MethodDelete, "/v1/jobs/"+st.ID, &canceled); code != http.StatusOK {
		t.Errorf("cancelJob: HTTP %d", code)
	}
	if canceled.ID != st.ID || canceled.State != service.StateDone {
		t.Errorf("canceling a finished job returned %+v, want %s still done", canceled, st.ID)
	}
}

// A report request whose backend has died confirms the death with a
// probe, fails the job over and retries at the survivor; once the
// survivor's re-execution is done its report is byte-identical to the
// lost backend's.
func TestJobReportFailsOverDeadBackend(t *testing.T) {
	_, rtSrv, fixtures := newTestFleet(t, 2, func(o *Options) {
		o.ProbeInterval = time.Hour // only the report's confirm probe may notice the death
	})
	c := routerClient(rtSrv)
	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: testScenario})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)
	url := rtSrv.URL + "/v1/jobs/" + st.ID + "/report"
	want := rawStream(t, rtSrv.Client(), url)

	from := assignmentOf(t, rtSrv, st.ID).Backend
	for _, f := range fixtures {
		if f.name == from {
			f.srv.Close()
		}
	}
	resp, err := rtSrv.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The survivor answers: done already (200) or still re-executing (409).
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("report after backend death: HTTP %d, want the survivor's 200 or 409", resp.StatusCode)
	}
	if to := assignmentOf(t, rtSrv, st.ID).Backend; to == from {
		t.Fatalf("job still assigned to dead backend %s", from)
	}
	var health struct {
		Backends map[string]State `json:"backends"`
	}
	callJSON(t, rtSrv, http.MethodGet, "/v1/healthz", &health)
	if health.Backends[from] != StateDead {
		t.Errorf("healthz reports %s as %q, want dead", from, health.Backends[from])
	}

	waitDone(t, c, st.ID)
	if got := rawStream(t, rtSrv.Client(), url); !bytes.Equal(got, want) {
		t.Errorf("survivor's report differs from the lost backend's:\n%s\n--- vs ---\n%s", got, want)
	}
}

// A cancel whose backend has died fails the job over first, as a status,
// report or stream read does, and cancels it at the survivor.
func TestCancelFailsOverDeadBackend(t *testing.T) {
	_, rtSrv, fixtures := newTestFleet(t, 2, func(o *Options) {
		o.ProbeInterval = time.Hour // only the cancel's confirm probe may notice the death
	})
	c := routerClient(rtSrv)
	st, err := c.Submit(context.Background(), sweep.JobRequest{Scenario: testScenario})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)
	from := assignmentOf(t, rtSrv, st.ID).Backend
	for _, f := range fixtures {
		if f.name == from {
			f.srv.Close()
		}
	}
	var canceled service.JobStatus
	if code := callJSON(t, rtSrv, http.MethodDelete, "/v1/jobs/"+st.ID, &canceled); code != http.StatusOK || canceled.ID != st.ID {
		t.Errorf("cancel after backend death: HTTP %d %+v, want the survivor's 200 for %s", code, canceled, st.ID)
	}
	if to := assignmentOf(t, rtSrv, st.ID).Backend; to == from {
		t.Errorf("job still assigned to dead backend %s", from)
	}
}

// Status reads, cancels, streams and lists that meet a pruned job's 410 at
// once forget it once: each answers 410 (the list leaves the job out), the
// routing table ends empty, and the journal holds one forget.
func TestConcurrentReadsForgetOnce(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, service.HealthInfo{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusAccepted, service.JobStatus{ID: "job-7", Scenario: testScenario, State: service.StateDone})
	})
	mux.HandleFunc("/v1/jobs/job-7/", func(w http.ResponseWriter, r *http.Request) {
		service.WriteError(w, http.StatusGone, errors.New(`job "job-7" is gone (pruned)`))
	})
	mux.HandleFunc("/v1/jobs/job-7", func(w http.ResponseWriter, r *http.Request) {
		service.WriteError(w, http.StatusGone, errors.New(`job "job-7" is gone (pruned)`))
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()
	rt, err := NewRouter(Options{
		Backends:      []BackendSpec{{Name: "b0", URL: backend.URL}},
		StateDir:      t.TempDir(),
		ProbeInterval: time.Hour,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rt.Close()
	defer rtSrv.Close()
	st, err := routerClient(rtSrv).Submit(context.Background(), sweep.JobRequest{Scenario: testScenario})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, req := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + st.ID},
			{http.MethodDelete, "/v1/jobs/" + st.ID},
			{http.MethodGet, "/v1/jobs/" + st.ID + "/cells"},
			{http.MethodGet, "/v1/jobs"},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hreq, _ := http.NewRequest(req.method, rtSrv.URL+req.path, nil)
				resp, err := rtSrv.Client().Do(hreq)
				if err != nil {
					t.Errorf("%s %s: %v", req.method, req.path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if req.path == "/v1/jobs" {
					if resp.StatusCode != http.StatusOK || string(bytes.TrimSpace(body)) != "[]" {
						t.Errorf("list: HTTP %d %s, want 200 []", resp.StatusCode, body)
					}
					return
				}
				// A stream that began before the forget is aborted; a
				// riding client would resume to the 410.
				if resp.StatusCode != http.StatusGone && (resp.StatusCode != http.StatusOK || err == nil) {
					t.Errorf("%s %s: HTTP %d %s, want 410", req.method, req.path, resp.StatusCode, body)
				}
			}()
		}
	}
	wg.Wait()
	if a := fleetState(t, rtSrv).Assignments; len(a) != 0 {
		t.Errorf("routing table after the forget: %+v, want empty", a)
	}
	journal, err := os.ReadFile(filepath.Join(rt.store.log.Dir(), "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte(`"forget"`)); n != 1 {
		t.Errorf("journal holds %d forget(s), want 1:\n%s", n, journal)
	}
}
