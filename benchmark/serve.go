package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpusimpow/internal/service"
	"gpusimpow/internal/sweep"
)

// loadClients is the closed loop's width: two service.Clients, each
// sending its next job only after the previous one's report arrived. It
// matches the reference host's CPU count, so the load generator never
// holds more goroutines or connections than there are CPUs.
const loadClients = 2

// nominalJob is one serve job's share of the closed loop's throughput on
// the reference host; it only sizes the run. The job count is fixed per
// --seconds because gpowd keeps every job: a count that grew with speed
// would grow memory with it.
const nominalJob = 4500 * time.Microsecond

// serveTimeout bounds one serve run's network work.
const serveTimeout = 150 * time.Second

// serveCatalog is the request mix: Figure 6 per GPU, every single-cell
// l1sched filter, every core-count variant, and the unfiltered dvfs,
// energyperop and remaining ablation sweeps — 24 requests with 1 to 12
// cells each.
func serveCatalog() ([]sweep.JobRequest, error) {
	reqs := []sweep.JobRequest{
		{Scenario: "fig6", Filter: sweep.Filter{"gpu": {"GT240"}}},
		{Scenario: "fig6", Filter: sweep.Filter{"gpu": {"GTX580"}}},
	}
	l1, err := axisValues("l1sched", "l1")
	if err != nil {
		return nil, err
	}
	sched, err := axisValues("l1sched", "sched")
	if err != nil {
		return nil, err
	}
	for _, a := range l1 {
		for _, b := range sched {
			reqs = append(reqs, sweep.JobRequest{Scenario: "l1sched", Filter: sweep.Filter{"l1": {a}, "sched": {b}}})
		}
	}
	variants, err := axisValues("ablation-corecount", "variant")
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		reqs = append(reqs, sweep.JobRequest{Scenario: "ablation-corecount", Filter: sweep.Filter{"variant": {v}}})
	}
	for _, name := range []string{"dvfs", "energyperop", "ablation-scoreboard", "ablation-l2", "ablation-processnode", "ablation-scheduler"} {
		reqs = append(reqs, sweep.JobRequest{Scenario: name})
	}
	return reqs, nil
}

// axisValues lists a registered sweep's value names on one axis.
func axisValues(scenario, axis string) ([]string, error) {
	sc, ok := sweep.Lookup(scenario)
	if !ok || sc.Spec == nil {
		return nil, fmt.Errorf("scenario %q is not a registered sweep", scenario)
	}
	for _, ax := range sc.Spec().Axes {
		if ax.Name == axis {
			var out []string
			for _, v := range ax.Values {
				out = append(out, v.Name)
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("scenario %q has no axis %q", scenario, axis)
}

// servedRequest is one catalog entry and, when computed, the bytes a
// correct daemon must serve for it.
type servedRequest struct {
	req        sweep.JobRequest
	stream     []byte // NDJSON cell records; nil skips verification
	report     []byte // JSON report
	parsed     *sweep.Report
	warpInstrs uint64
}

// serveOracle runs every catalog request in-process and keeps the record
// stream and report a daemon must reproduce byte for byte. Unfiltered
// requests are also checked against the pinned scenario hashes.
func serveOracle(r *runCtx, catalog []sweep.JobRequest) ([]*servedRequest, error) {
	out := make([]*servedRequest, len(catalog))
	for i, req := range catalog {
		sr, err := runScenario(nil, -1, -1, req.Scenario, req.Filter)
		if err != nil {
			return nil, err
		}
		stream, err := recordStream(sr.recs)
		if err != nil {
			return nil, err
		}
		rep, err := json.Marshal(sr.report)
		if err != nil {
			return nil, err
		}
		if req.Filter == nil {
			r.checkScenario(req.Scenario, sr.recs)
		}
		out[i] = &servedRequest{req: req, stream: stream, report: rep, parsed: sr.report, warpInstrs: timingWarpInstrs(sr.recs)}
	}
	return out, nil
}

// daemon is one child process serving HTTP on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once the process has been reaped
}

// startDaemon starts bin with args, logging to logPath, and waits until
// the process reports its listening address.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once stop was asked for
		close(d.exited)
	}()
	deadline := time.After(30 * time.Second)
	for {
		b, _ := os.ReadFile(logPath)
		const marker = "listening on "
		if i := bytes.Index(b, []byte(marker)); i >= 0 {
			if j := bytes.IndexByte(b[i:], '\n'); j >= 0 {
				d.url = string(b[i+len(marker) : i+j])
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited before listening: %s", filepath.Base(bin), bytes.TrimSpace(b))
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("%s did not report its address within 30s", filepath.Base(bin))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop asks the daemon to drain (SIGTERM) and waits until it has exited,
// killing it if it does not within 30 s.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// fleetProcs is gpowfleet in front of two gpowd backends, each with its
// own state directory under dir.
type fleetProcs struct {
	dir      string
	backends []*daemon // b0, b1
	router   *daemon
}

// backendNames are the fleet's ring identities.
var backendNames = []string{"b0", "b1"}

func startFleet(bin, dir string) (*fleetProcs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleetProcs{dir: dir}
	var spec []byte
	for _, name := range backendNames {
		d, err := startDaemon(filepath.Join(bin, "gpowd"), filepath.Join(dir, name+".log"),
			"-addr", "127.0.0.1:0", "-state-dir", filepath.Join(dir, name))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, d)
		if len(spec) > 0 {
			spec = append(spec, ',')
		}
		spec = append(spec, name+"="+d.url...)
	}
	rt, err := startDaemon(filepath.Join(bin, "gpowfleet"), filepath.Join(dir, "router.log"),
		"-addr", "127.0.0.1:0", "-backends", string(spec), "-state-dir", filepath.Join(dir, "router"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	return f, nil
}

// stop stops the router, then the backends, waiting for each.
func (f *fleetProcs) stop() {
	if f.router != nil {
		f.router.stop()
	}
	for _, d := range f.backends {
		d.stop()
	}
}

func (f *fleetProcs) daemons() []*daemon { return append([]*daemon{f.router}, f.backends...) }

// health probes every backend's /v1/healthz.
func health(ctx context.Context, cls []*service.Client) ([]*service.HealthInfo, error) {
	out := make([]*service.HealthInfo, len(cls))
	for i, cl := range cls {
		hi, _, err := cl.ProbeHealth(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = hi
	}
	return out, nil
}

// newHTTPClient caps connections per daemon at the loop's width.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: loadClients, MaxIdleConnsPerHost: loadClients}}
}

// jobResult is one job's timings, from submit start.
type jobResult struct {
	submit, first, report, total time.Duration
	records                      int
	err                          error
}

// runJob submits one request, follows its cell stream and fetches its
// report, comparing both with the oracle's bytes when it has them.
func runJob(ctx context.Context, tr *tracer, pass int, cl *service.Client, want *servedRequest) jobResult {
	var jr jobResult
	t0 := time.Now()
	root := tr.begin("job", -1, pass)
	defer tr.end(root)

	id := tr.begin("service.Submit", root, pass)
	st, err := cl.Submit(ctx, want.req)
	tr.end(id)
	jr.submit = time.Since(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	id = tr.begin("service.StreamCells", root, pass)
	err = cl.StreamCells(ctx, st.ID, func(rec *sweep.CellRecord) error {
		if jr.records == 0 {
			jr.first = time.Since(t0)
		}
		jr.records++
		return enc.Encode(rec)
	})
	tr.end(id)
	if err != nil {
		jr.err = err
		return jr
	}
	t1 := time.Now()
	id = tr.begin("service.Report", root, pass)
	rep, err := cl.Report(ctx, st.ID)
	tr.end(id)
	jr.report = time.Since(t1)
	jr.total = time.Since(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	if want.stream == nil {
		return jr
	}
	if !bytes.Equal(stream.Bytes(), want.stream) {
		jr.err = fmt.Errorf("%s %v: served cell records differ from the in-process run", want.req.Scenario, want.req.Filter)
		return jr
	}
	if b, err := json.Marshal(rep); err != nil || !bytes.Equal(b, want.report) {
		jr.err = fmt.Errorf("%s %v: served report differs from the in-process reduction", want.req.Scenario, want.req.Filter)
	}
	return jr
}

// jobSequence lists at least n jobs over a catalog of the given size,
// whole rounds of it so that every request appears equally often, in an
// order drawn by seed: runs with different seeds do the same work.
func jobSequence(rng *rand.Rand, n, catalog int) []int {
	var seq []int
	for len(seq) < n {
		for i := 0; i < catalog; i++ {
			seq = append(seq, i)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func untraced(int) *tracer { return nil }

// runJobs drives a closed loop of loadClients goroutines over the job
// sequence; pick maps a job index to its client and request, trace to its
// tracer (nil when untraced). Results come back in sequence order.
func runJobs(ctx context.Context, n int, pick func(i int) (*service.Client, *servedRequest), trace func(i int) *tracer) []jobResult {
	results := make([]jobResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				cl, want := pick(i)
				results[i] = runJob(ctx, trace(i), i, cl, want)
			}
		}()
	}
	wg.Wait()
	return results
}

// runServe runs the serve workload. The in-process oracle is computed
// first (it is the checker, not the system under test, so it is not part
// of setup_s). Set-up starts the fleet setupReps times and warms every
// catalog request once; setup_s is the median start plus the warm-up. The
// timed phase is a fixed number of jobs drawn by seed from the catalog;
// peak_rss_mb is the daemons' summed peak RSS during it.
func runServe(r *runCtx) error {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	catalog, err := serveCatalog()
	if err != nil {
		return err
	}
	reqs, err := serveOracle(r, catalog)
	if err != nil {
		return err
	}
	seq := jobSequence(r.rng, r.passCount(nominalJob, 2), len(reqs))
	n := len(seq)

	dir := filepath.Join(r.opts.workdir, "serve")
	defer os.RemoveAll(dir)
	var fl *fleetProcs
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()
	var starts []float64
	for rep := 0; rep < setupReps; rep++ {
		if fl != nil {
			fl.stop()
		}
		t0 := time.Now()
		if fl, err = startFleet(r.opts.bin, dir); err != nil {
			return err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	httpc := newHTTPClient()
	defer httpc.CloseIdleConnections()
	router := &service.Client{Base: fl.router.url, HTTP: httpc}
	backends := make([]*service.Client, len(fl.backends))
	for i, d := range fl.backends {
		backends[i] = &service.Client{Base: d.url, HTTP: httpc}
	}

	t0 := time.Now()
	warmed := runJobs(ctx, len(reqs), func(i int) (*service.Client, *servedRequest) { return router, reqs[i] }, untraced)
	warm := time.Since(t0).Seconds()
	for i, res := range warmed {
		if res.err != nil {
			return fmt.Errorf("warming %s: %w", reqs[i].req.Scenario, res.err)
		}
		if reqs[i].req.Scenario == "fig6" {
			r.checkFig6(reqs[i].parsed)
		}
	}
	for _, s := range starts {
		r.setupS = append(r.setupS, s+warm)
	}

	var pids []string
	for _, d := range fl.daemons() {
		pids = append(pids, strconv.Itoa(d.cmd.Process.Pid))
	}
	rss, err := startRSSSampler(pids...)
	if err != nil {
		return err
	}
	defer rss.stop()
	h0, err := health(ctx, backends)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	results := runJobs(ctx, n,
		func(i int) (*service.Client, *servedRequest) { return router, reqs[seq[i]] },
		r.tr)
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	h1, err := health(ctx, backends)
	if err != nil {
		return err
	}

	var records int
	var wi uint64
	for i, res := range results {
		r.attempted++
		if res.err != nil {
			r.fail("job %d: %v", i, res.err)
			continue
		}
		records += res.records
		wi += reqs[seq[i]].warpInstrs
		r.firstMS = append(r.firstMS, ms(res.first))
		r.passMS = append(r.passMS, ms(res.total))
		if r.tr(i) != nil {
			r.tracedMS = append(r.tracedMS, ms(res.total))
		} else if r.tracer != nil {
			r.plainMS = append(r.plainMS, ms(res.total))
		}
	}
	r.recPerS = []float64{float64(records) / elapsed}
	r.wiPerS = []float64{float64(wi) / elapsed}
	r.mem.add(&before, &after)
	r.memPasses = n
	for i := range h0 {
		r.cacheHits += float64(h1[i].Cache.Hits - h0[i].Cache.Hits)
		r.cacheMisses += float64(h1[i].Cache.Misses - h0[i].Cache.Misses)
	}
	r.cachePasses = n
	return r.keepRSS(rss)
}
