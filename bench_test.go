// Simulator-throughput microbenchmarks: quick A/B and pprof probes of the
// timing simulator on single Table I benchmarks, one probe of the virtual
// card's measurement layer, cold and warm passes of the paper's sweep
// scenarios (BenchmarkSweepCold, BenchmarkSweepWarm), and served jobs
// through an in-process fleet (BenchmarkServeJob). The reproduced paper
// quantities are pinned exactly by the scenario goldens in
// internal/experiments, and the measured end-to-end ledger is benchmark/.
//
//	go test -bench=Sim -benchmem -cpuprofile cpu.prof
//	go test -bench=SweepCold -run=NONE -cpuprofile cpu.prof
//	go test -bench=SweepWarm -run=NONE -cpuprofile cpu.prof
//	go test -bench=ServeJob -run=NONE -benchmem -cpuprofile cpu.prof
package gpusimpow_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	_ "gpusimpow/internal/experiments" // registers the sweep scenarios
	"gpusimpow/internal/fleet"
	"gpusimpow/internal/hw"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/power"
	"gpusimpow/internal/service"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// launchFunc runs one kernel launch and returns its performance result.
type launchFunc func(*kernel.Launch, *kernel.GlobalMem, *kernel.ConstMem) (*sim.Result, error)

// benchSimulate measures simulator throughput for one benchmark on one GPU
// with the default event-driven fast-forward clock loop. It calls the
// simulator directly, not through the result cache, so the numbers keep
// measuring the simulator itself (cache replay has its own benchmark below).
func benchSimulate(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	benchLaunches(b, name, direct(b, gpu()))
}

// benchSimulateCached measures the same workload served from the
// content-addressed result cache: an untimed priming pass fills the cache,
// so every timed iteration is a steady-state hit (hash the inputs, replay
// the stored memory image, clone the result) even when the benchmark runs
// in isolation.
func benchSimulateCached(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	simr, err := core.New(gpu())
	if err != nil {
		b.Fatal(err)
	}
	f, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := f.Make()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range inst.Runs {
		if _, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem); err != nil {
			b.Fatal(err)
		}
	}
	benchLaunches(b, name, func(l *kernel.Launch, mem *kernel.GlobalMem, cmem *kernel.ConstMem) (*sim.Result, error) {
		rep, err := simr.RunKernel(l, mem, cmem)
		if err != nil {
			return nil, err
		}
		return rep.Perf, nil
	})
}

// benchSimulateDense measures the same simulation with the dense
// tick-every-cycle loop, quantifying the fast-forward speedup (the two modes
// are bit-identical in results; see the sim package's determinism table).
func benchSimulateDense(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	cfg := gpu()
	cfg.DenseClock = true
	benchLaunches(b, name, direct(b, cfg))
}

// direct simulates each launch on the plain simulator and prices it with
// the power model: the work of a cache miss, without the cache.
func direct(b *testing.B, cfg *config.GPU) launchFunc {
	b.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := power.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return func(l *kernel.Launch, mem *kernel.GlobalMem, cmem *kernel.ConstMem) (*sim.Result, error) {
		res, err := g.Run(l, mem, cmem)
		if err != nil {
			return nil, err
		}
		_, err = pm.Evaluate(res)
		return res, err
	}
}

// benchLaunches times run over every launch of a fresh instance of the
// named benchmark per iteration.
func benchLaunches(b *testing.B, name string, run launchFunc) {
	b.Helper()
	f, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		inst, err := f.Make()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range inst.Runs {
			res, err := run(r.Launch, inst.Mem, r.CMem)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Activity.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

func BenchmarkSimVectorAddGT240(b *testing.B)    { benchSimulate(b, config.GT240, "vectorAdd") }
func BenchmarkSimBlackScholesGT240(b *testing.B) { benchSimulate(b, config.GT240, "BlackScholes") }
func BenchmarkSimMatrixMulGTX580(b *testing.B)   { benchSimulate(b, config.GTX580, "matrixMul") }
func BenchmarkSimBFSGTX580(b *testing.B)         { benchSimulate(b, config.GTX580, "bfs") }
func BenchmarkSimMergeSortGT240(b *testing.B)    { benchSimulate(b, config.GT240, "mergeSort") }

// Dense-clock counterparts: the same simulations with fast-forward disabled.
func BenchmarkSimBlackScholesGT240Dense(b *testing.B) {
	benchSimulateDense(b, config.GT240, "BlackScholes")
}
func BenchmarkSimBFSGTX580Dense(b *testing.B) { benchSimulateDense(b, config.GTX580, "bfs") }
func BenchmarkSimMatrixMulGTX580Dense(b *testing.B) {
	benchSimulateDense(b, config.GTX580, "matrixMul")
}

// Cached counterparts: the same simulations served as content-addressed
// cache hits (hash inputs, replay the stored memory image, clone the
// result). BlackScholes is one launch, hashed in full; bfs chains its
// second kernel on the first one's final image, which is keyed from the
// cache's chain memo.
func BenchmarkSimBlackScholesGT240Cached(b *testing.B) {
	benchSimulateCached(b, config.GT240, "BlackScholes")
}
func BenchmarkSimBFSGTX580Cached(b *testing.B) { benchSimulateCached(b, config.GTX580, "bfs") }

// BenchmarkMeasureKernelGT240 measures one BlackScholes kernel on the
// virtual GT240 with an auto-sized 150 ms window, with the kernel's
// timing already in the result cache: the cost is the
// card's pricing and its DAQ trace (noise, filter, per-rail sum).
func BenchmarkMeasureKernelGT240(b *testing.B) {
	card, err := hw.NewCard(config.GT240())
	if err != nil {
		b.Fatal(err)
	}
	f, err := bench.ByName("BlackScholes")
	if err != nil {
		b.Fatal(err)
	}
	measure := func() int {
		inst, err := f.Make()
		if err != nil {
			b.Fatal(err)
		}
		r := inst.Runs[0]
		tr, _, err := card.MeasureSequence([]hw.SeqItem{{Launch: r.Launch, Mem: inst.Mem, CMem: r.CMem, MinWindowS: 0.150}})
		if err != nil {
			b.Fatal(err)
		}
		return len(tr.Samples)
	}
	measure() // prime the result cache
	b.ResetTimer()
	var samples int
	for i := 0; i < b.N; i++ {
		samples += measure()
	}
	b.ReportMetric(float64(samples)/float64(b.N), "daq-samples/op")
}

// sweepSet is the paper reproduction of the benchmark harness's sweep
// workloads, in its groups: Figure 6, the five design-choice ablations, the
// energy-per-op microbenchmark and the DVFS study.
var sweepSet = [][]string{
	{"fig6"},
	{"ablation-scoreboard", "ablation-l2", "ablation-processnode", "ablation-corecount", "ablation-scheduler"},
	{"energyperop"},
	{"dvfs"},
}

// sweepPass runs every scenario of sweepSet once the way every front-end
// does: plan, run, records, reduce. cold empties the process-wide result
// cache before each group, as the harness's sweep-cold workload does.
func sweepPass(b *testing.B, cold bool) {
	b.Helper()
	for _, group := range sweepSet {
		if cold {
			simcache.Default().Reset()
		}
		for _, name := range group {
			sc, ok := sweep.Lookup(name)
			if !ok || sc.Spec == nil || sc.Reduce == nil {
				b.Fatalf("scenario %q is not a registered sweep with a reduction", name)
			}
			plan, err := sc.Spec().Plan(nil)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := plan.Run(nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sc.Reduce(plan.Records(rs), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepCold times one pass of sweepSet with the result cache
// emptied before each group: every group simulates its timing runs again,
// so the pass is mostly the timing simulator on the microbenchmark,
// ablation and DVFS kernels, then pricing, measurement and reduction.
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepPass(b, true)
	}
}

// BenchmarkSweepWarm times one pass of sweepSet with every timing
// group a result-cache hit: an untimed pass fills the process-wide cache
// first, so the timed passes plan, key, replay, price, measure and reduce,
// as the harness's sweep-warm workload does.
func BenchmarkSweepWarm(b *testing.B) {
	sweepPass(b, false)
	before := simcache.Default().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepPass(b, false)
	}
	b.StopTimer()
	if st := simcache.Default().Stats(); st.Misses != before.Misses {
		b.Fatalf("%d timing misses in the timed passes, want every group a hit", st.Misses-before.Misses)
	}
}

// exchangeCount counts the HTTP requests a handler serves, health probes
// left out (the router's probe loop sends them on its own clock).
type exchangeCount struct {
	next http.Handler
	n    atomic.Int64
}

func (c *exchangeCount) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/healthz" {
		c.n.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// serveCatalog is BenchmarkServeJob's request mix: small sweeps, from
// single cells to whole ablation studies.
var serveCatalog = []sweep.JobRequest{
	{Scenario: "ablation-processnode"},
	{Scenario: "ablation-scheduler"},
	{Scenario: "ablation-l2"},
	{Scenario: "dvfs"},
	{Scenario: "ablation-corecount", Filter: sweep.Filter{"variant": {"4clusters"}}},
	{Scenario: "l1sched", Filter: sweep.Filter{"l1": {"16KB"}, "sched": {"gto"}}},
}

// BenchmarkServeJob serves one catalog request per op through an
// in-process fleet, a gpowfleet router over one gpowd, both over
// httptest: submit, follow the cells stream, fetch the report, as
// gpowexp -remote and the harness's serve workload do. An untimed pass
// fills the result cache first, so the op is HTTP, NDJSON, routing,
// planning, replay and reduction. It reports the HTTP exchanges per
// served job on both hops (exchanges/op).
func BenchmarkServeJob(b *testing.B) {
	m := service.NewManager(service.Options{MaxConcurrent: 2, RetainJobs: 64})
	backend := &exchangeCount{next: service.NewServer(m)}
	bSrv := httptest.NewServer(backend)
	rt, err := fleet.NewRouter(fleet.Options{Backends: []fleet.BackendSpec{{Name: "b0", URL: bSrv.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	router := &exchangeCount{next: rt}
	rtSrv := httptest.NewServer(router)
	defer func() {
		rtSrv.Close()
		rt.Close()
		bSrv.Close()
		m.Close()
	}()
	c := &service.Client{Base: rtSrv.URL, HTTP: rtSrv.Client()}
	ctx := context.Background()
	serve := func(req sweep.JobRequest) {
		st, err := c.Submit(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.StreamCells(ctx, st.ID, func(*sweep.CellRecord) error { return nil }); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Report(ctx, st.ID); err != nil {
			b.Fatal(err)
		}
	}
	for _, req := range serveCatalog {
		serve(req)
	}
	before := router.n.Load() + backend.n.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(serveCatalog[i%len(serveCatalog)])
	}
	b.StopTimer()
	b.ReportMetric(float64(router.n.Load()+backend.n.Load()-before)/float64(b.N), "exchanges/op")
}
