package fleet

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/service"
	"gpusimpow/internal/sweep"
)

// exchangeCounter counts the requests a handler serves by method and
// route, job IDs folded into {id} ("GET /v1/jobs/{id}/cells"). Health
// probes are left out: the router's probe loop sends them on its own
// clock, not per job.
type exchangeCounter struct {
	next http.Handler
	mu   sync.Mutex
	n    map[string]int
}

func countExchanges(next http.Handler) *exchangeCounter {
	return &exchangeCounter{next: next, n: map[string]int{}}
}

func (c *exchangeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/healthz" {
		parts := strings.Split(r.URL.Path, "/")
		if len(parts) > 3 && parts[2] == "jobs" {
			parts[3] = "{id}"
		}
		c.mu.Lock()
		c.n[r.Method+" "+strings.Join(parts, "/")]++
		c.mu.Unlock()
	}
	c.next.ServeHTTP(w, r)
}

// counts renders the counts sorted by route.
func (c *exchangeCounter) counts() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(c.n)) {
		fmt.Fprintf(&b, "%s=%d ", k, c.n[k])
	}
	return strings.TrimSpace(b.String())
}

// fleetPlanProbes numbers the scenarios TestServedJobExchanges registers.
var fleetPlanProbes atomic.Int32

// A served job costs exactly one submit, one cells stream and one report
// on each hop, client to router and router to gpowd, and no status
// request: 6 exchanges. The router and gpowd plan each distinct request
// once per process, however many jobs submit it.
func TestServedJobExchanges(t *testing.T) {
	// A fresh copy of testScenario that counts its Spec calls, so that
	// every run (-count=N) starts unplanned.
	var specs atomic.Int32
	name := fmt.Sprintf("fleetplans-%d", fleetPlanProbes.Add(1))
	base, _ := sweep.Lookup(testScenario)
	sweep.Register(sweep.Scenario{
		Name: name, Title: "fleet-test plan-counting scenario",
		Reduce: base.Reduce,
		Spec: func() *sweep.Spec {
			specs.Add(1)
			sp := base.Spec()
			sp.Name = name
			return sp
		},
	})

	m := service.NewManager(service.Options{MaxConcurrent: 2})
	backend := countExchanges(service.NewServer(m))
	bSrv := httptest.NewServer(backend)
	rt, err := NewRouter(Options{Backends: []BackendSpec{{Name: "b0", URL: bSrv.URL}}, ProbeInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	router := countExchanges(rt)
	rtSrv := httptest.NewServer(router)
	defer func() {
		rtSrv.Close()
		rt.Close()
		bSrv.Close()
		m.Close()
	}()

	const jobs = 3
	c := routerClient(rtSrv)
	ctx := context.Background()
	for range jobs {
		st, err := c.Submit(ctx, sweep.JobRequest{Scenario: name})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := c.StreamCells(ctx, st.ID, func(*sweep.CellRecord) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != st.Cells {
			t.Fatalf("streamed %d records, want %d", n, st.Cells)
		}
		if _, err := c.Report(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}

	want := fmt.Sprintf("GET /v1/jobs/{id}/cells=%d GET /v1/jobs/{id}/report=%d POST /v1/jobs=%d", jobs, jobs, jobs)
	for hop, ex := range map[string]*exchangeCounter{"client to router": router, "router to gpowd": backend} {
		if got := ex.counts(); got != want {
			t.Errorf("%d jobs, %s: %s, want %s", jobs, hop, got, want)
		}
	}
	if n := specs.Load(); n != 1 {
		t.Errorf("%d submissions of one request called its Spec %d times, want once per process", jobs, n)
	}
}
