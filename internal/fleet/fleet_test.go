package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	t.Setenv("GPUSIMPOW_FAULTPOINT", service.FaultDropBackendMidStream+":skip=1")
	service.ResetFaultpoints()
	defer service.ResetFaultpoints()

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
	refCells := rawStream(t, refSrv.Client(), refSrv.URL+"/v1/jobs/"+refSt.ID+"/cells")
	if !bytes.Equal(cells, refCells) {
		t.Errorf("stream that rode through failover differs from single-node run")
	}

	// The exactly-once guarantee: one backend job per fleet job per home.
	for _, f := range fixtures {
		if n := len(f.m.Jobs()); n > 1 {
			t.Errorf("backend %s holds %d jobs, want at most 1", f.name, n)
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
	from := assignmentOf(t, rtSrv, st.ID).Backend

	rt.mu.Lock()
	j := rt.jobs[st.ID]
	rt.mu.Unlock()

	var moved atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rt.redispatch(j, from) {
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
	t.Setenv("GPUSIMPOW_FAULTPOINT", service.FaultBlackholeProbe+":times=4")
	service.ResetFaultpoints()
	defer service.ResetFaultpoints()

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
