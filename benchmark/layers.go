package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/core"
	"gpusimpow/internal/fleet"
	"gpusimpow/internal/hw"
	"gpusimpow/internal/journal"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/service"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// probeLayers measures each layer from outside by timing calls into its
// public functions on fixed inputs — the same inputs whatever the
// workload — and adds the results to r.layer. Probe sizes scale with
// --seconds. The sweep probe runs first so the hardware probe finds
// Figure 6's timing results cached, as a sweep's measurement stage does.
func probeLayers(r *runCtx) error {
	recs, err := probeSweep(r)
	if err != nil {
		return fmt.Errorf("sweep probe: %w", err)
	}
	steps := []struct {
		name string
		fn   func(*runCtx) error
	}{
		{"hw", probeHW},
		{"power", probePower},
		{"journal", func(r *runCtx) error { return probeJournal(r, recs) }},
		{"kernel", probeKernel},
		{"sim and simcache", probeSim},
		{"service and fleet", probeServe},
	}
	for _, s := range steps {
		if err := s.fn(r); err != nil {
			return fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	return nil
}

// scaled sizes a probe: base at --seconds 10, never below min.
func (r *runCtx) scaled(base, min int) int {
	return max(min, int(math.Round(float64(base)*r.opts.seconds/10)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeSweep times the four pipeline phases over warm passes of the
// scenario set, after one warm-up pass. It returns Figure 6's records for
// the journal probe.
func probeSweep(r *runCtx) ([]*sweep.CellRecord, error) {
	passes := r.scaled(20, 2)
	var fig6 []*sweep.CellRecord
	var plan, run, records, reduce time.Duration
	var groups, cells int
	for p := -1; p < passes; p++ {
		for _, group := range sweepSet {
			for _, name := range group {
				sr, err := runScenario(nil, -1, -1, name, nil)
				if err != nil {
					return nil, err
				}
				if name == "fig6" {
					fig6 = sr.recs
				}
				if p < 0 {
					continue // warm-up
				}
				plan += sr.planD
				run += sr.runD
				records += sr.recordsD
				reduce += sr.reduceD
				groups += len(sr.plan.Groups)
				cells += len(sr.plan.Cells)
			}
		}
	}
	n := float64(passes)
	r.layer["sweep.plan_ms"] = value{ms(plan) / n, passes}
	r.layer["sweep.run_ms"] = value{ms(run) / n, passes}
	r.layer["sweep.records_ms"] = value{ms(records) / n, passes}
	r.layer["sweep.reduce_ms"] = value{ms(reduce) / n, passes}
	r.layer["sweep.timing_groups"] = value{float64(groups) / n, passes}
	r.layer["sweep.cells"] = value{float64(cells) / n, passes}
	return fig6, nil
}

// probeHW measures every Figure 6 cell on its own card session, as the
// sweep's measurement stage does.
func probeHW(r *runCtx) error {
	sc, _ := sweep.Lookup("fig6")
	plan, err := sc.Spec().Plan(nil)
	if err != nil {
		return err
	}
	var times []float64
	for _, c := range plan.Cells {
		inst, err := c.Workload.Build(c.Cfg)
		if err != nil {
			return err
		}
		items := make([]hw.SeqItem, len(inst.Units))
		for i, u := range inst.Units {
			items[i] = hw.SeqItem{Launch: u.Launch, Mem: inst.Mem, CMem: u.CMem, Repeats: u.Repeats, MinWindowS: u.MinWindowS, GapS: u.GapS}
		}
		t := time.Now()
		card, err := hw.NewCardSession(c.Cfg, plan.Spec.Session(c))
		if err != nil {
			return err
		}
		if _, _, err := card.MeasureSequence(items); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t)))
	}
	r.layer["hw.measure_ms_per_cell"] = value{median(times), len(times)}
	return nil
}

// probePower builds the process-node ablation's five power evaluators and
// prices one shared timing result with them in a batch.
func probePower(r *runCtx) error {
	sc, _ := sweep.Lookup("ablation-processnode")
	plan, err := sc.Spec().Plan(nil)
	if err != nil {
		return err
	}
	leader := plan.Cells[0]
	inst, err := leader.Workload.Build(leader.Cfg)
	if err != nil {
		return err
	}
	simr, err := core.New(leader.Cfg)
	if err != nil {
		return err
	}
	u := inst.Units[0]
	timing, err := simr.Simulate(u.Launch, inst.Mem, u.CMem)
	if err != nil {
		return err
	}
	reps := r.scaled(200, 10)
	evs := make([]*core.PowerEvaluator, len(plan.Cells))
	var news, evals []float64
	for k := 0; k < reps; k++ {
		for i, c := range plan.Cells {
			t := time.Now()
			if evs[i], err = core.NewPowerEvaluator(c.Cfg); err != nil {
				return err
			}
			news = append(news, us(time.Since(t)))
		}
		t := time.Now()
		if _, err := core.EvaluatePowerBatch(evs, timing); err != nil {
			return err
		}
		evals = append(evals, us(time.Since(t))/float64(len(evs)))
	}
	r.layer["power.new_us"] = value{median(news), len(news)}
	r.layer["power.eval_us_per_cell"] = value{median(evals), len(evals)}
	return nil
}

// probeJournal appends real cell records to a journal on a fresh
// directory, then compacts a snapshot of everything appended.
func probeJournal(r *runCtx, recs []*sweep.CellRecord) error {
	dir, err := os.MkdirTemp(r.opts.workdir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := journal.Open(dir)
	if err != nil {
		return err
	}
	defer lg.Close()
	n := r.scaled(2000, 100)
	snap := make([]*sweep.CellRecord, n)
	t := time.Now()
	for i := range snap {
		snap[i] = recs[i%len(recs)]
		lg.Append(snap[i])
	}
	r.layer["journal.append_us"] = value{us(time.Since(t)) / float64(n), n}
	var compacts []float64
	for k := 0; k < 3; k++ {
		t := time.Now()
		lg.Compact(snap)
		compacts = append(compacts, ms(time.Since(t)))
	}
	r.layer["journal.compact_ms"] = value{median(compacts), len(compacts)}
	return nil
}

// probeKernel runs the suite's launches through the functional
// interpreter, which executes the same Warp.Exec path the simulator does.
func probeKernel(r *runCtx) error {
	var d time.Duration
	var wi uint64
	for _, f := range bench.Suite() {
		inst, err := f.Make()
		if err != nil {
			return err
		}
		for _, run := range inst.Runs {
			t := time.Now()
			st, err := kernel.Interp(run.Launch, inst.Mem, run.CMem)
			d += time.Since(t)
			if err != nil {
				return err
			}
			wi += st.WarpInstrs
		}
	}
	r.layer["kernel.interp_ns_per_warp_instr"] = value{float64(d.Nanoseconds()) / float64(wi), int(wi)}
	return nil
}

// suiteTotals sums simulated statistics and host time over suite launches.
type suiteTotals struct {
	d                                 time.Duration
	launches                          int
	cycles, warpInstrs, dramBursts    uint64
	l1Reads, l1Misses, l2RW, l2Misses uint64
}

func (t *suiteTotals) add(res *sim.Result, d time.Duration) {
	a := &res.Activity
	t.d += d
	t.launches++
	t.cycles += a.Cycles
	t.warpInstrs += res.WarpInstrs
	t.dramBursts += a.DRAMReadBursts + a.DRAMWriteBursts
	t.l1Reads += a.L1Reads
	t.l1Misses += a.L1Misses
	t.l2RW += a.L2Reads + a.L2Writes
	t.l2Misses += a.L2Misses
}

// pairedSuite runs every suite launch on both GPUs twice, on two fresh
// instances of its benchmark: once on sim.GPU.Run (dense or event-driven)
// and right after through core.Simulator.Simulate, so host drift hits both
// alike. With key set it also times simcache.KeyFor before each Simulate.
func pairedSuite(dense bool, key *time.Duration) (plain suiteTotals, cached time.Duration, err error) {
	for _, mk := range suiteGPUs {
		cfg := mk()
		cfg.DenseClock = dense
		g, err := sim.New(cfg)
		if err != nil {
			return plain, 0, err
		}
		simr, err := core.New(mk())
		if err != nil {
			return plain, 0, err
		}
		for _, f := range bench.Suite() {
			a, err := f.Make()
			if err != nil {
				return plain, 0, err
			}
			b, err := f.Make()
			if err != nil {
				return plain, 0, err
			}
			for i, run := range a.Runs {
				t := time.Now()
				res, err := g.Run(run.Launch, a.Mem, run.CMem)
				if err != nil {
					return plain, 0, err
				}
				plain.add(res, time.Since(t))
				c := b.Runs[i]
				if key != nil {
					t = time.Now()
					simcache.KeyFor(simr.Config(), c.Launch, b.Mem, c.CMem)
					*key += time.Since(t)
				}
				t = time.Now()
				if _, err := simr.Simulate(c.Launch, b.Mem, c.CMem); err != nil {
					return plain, 0, err
				}
				cached += time.Since(t)
			}
		}
	}
	return plain, cached, nil
}

// probeSim times the simulator itself (event-driven, then dense) and the
// simulation cache around it: key hashing, a cold Simulate against the
// plain run of the same launch, and a warm Simulate (replay).
func probeSim(r *runCtx) error {
	simcache.Default().Reset()
	var key time.Duration
	event, cold, err := pairedSuite(false, &key)
	if err != nil {
		return err
	}
	dense, warm, err := pairedSuite(true, nil)
	if err != nil {
		return err
	}
	if dense.cycles != event.cycles || dense.warpInstrs != event.warpInstrs {
		r.fail("dense clock: %d cycles / %d warp instrs, event-driven %d / %d", dense.cycles, dense.warpInstrs, event.cycles, event.warpInstrs)
	}
	n := float64(event.launches)
	r.layer["sim.run_ns_per_cycle"] = value{float64(event.d.Nanoseconds()) / float64(event.cycles), int(event.cycles)}
	r.layer["sim.run_ns_per_warp_instr"] = value{float64(event.d.Nanoseconds()) / float64(event.warpInstrs), int(event.warpInstrs)}
	r.layer["sim.dense_over_event_ratio"] = value{dense.d.Seconds() / event.d.Seconds(), event.launches}
	r.layer["simcache.key_us_per_launch"] = value{us(key) / n, event.launches}
	r.layer["simcache.hit_us_per_launch"] = value{us(warm) / n, event.launches}
	r.layer["simcache.miss_overhead_pct"] = value{100 * (cold.Seconds()/event.d.Seconds() - 1), event.launches}
	r.layer["model.sim_cycles"] = value{float64(event.cycles), event.launches}
	r.layer["model.warp_instrs"] = value{float64(event.warpInstrs), event.launches}
	r.layer["model.ipc"] = value{float64(event.warpInstrs) / float64(event.cycles), event.launches}
	r.layer["model.l1_hit_rate"] = value{1 - float64(event.l1Misses)/float64(event.l1Reads), event.launches}
	r.layer["model.l2_hit_rate"] = value{1 - float64(event.l2Misses)/float64(event.l2RW), event.launches}
	r.layer["model.dram_bursts"] = value{float64(event.dramBursts), event.launches}
	return nil
}

// probeServe starts its own fleet, warms every catalog request, then runs
// the same seeded job sequence twice: straight at each request's ring
// owner, then through the router.
func probeServe(r *runCtx) error {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	catalog, err := serveCatalog()
	if err != nil {
		return err
	}
	dir := filepath.Join(r.opts.workdir, "probe-serve")
	defer os.RemoveAll(dir)
	fl, err := startFleet(r.opts.bin, dir)
	if err != nil {
		return err
	}
	defer fl.stop()
	httpc := newHTTPClient()
	defer httpc.CloseIdleConnections()
	router := &service.Client{Base: fl.router.url, HTTP: httpc}
	backends := make([]*service.Client, len(fl.backends))
	byName := map[string]*service.Client{}
	for i, d := range fl.backends {
		backends[i] = &service.Client{Base: d.url, HTTP: httpc}
		byName[backendNames[i]] = backends[i]
	}
	reqs := make([]*servedRequest, len(catalog))
	owners := make([]*service.Client, len(catalog))
	for i, req := range catalog {
		reqs[i] = &servedRequest{req: req}
		_, owner, err := fleet.Owner(backendNames, req)
		if err != nil {
			return err
		}
		owners[i] = byName[owner]
	}
	for _, res := range runJobs(ctx, len(reqs), func(i int) (*service.Client, *servedRequest) { return router, reqs[i] }, untraced) {
		if res.err != nil {
			return res.err
		}
	}

	seq := jobSequence(r.rng, r.scaled(500, 20), len(reqs))
	n := len(seq)
	h0, err := health(ctx, backends)
	if err != nil {
		return err
	}
	direct := runJobs(ctx, n, func(i int) (*service.Client, *servedRequest) { return owners[seq[i]], reqs[seq[i]] }, untraced)
	h1, err := health(ctx, backends)
	if err != nil {
		return err
	}
	routed := runJobs(ctx, n, func(i int) (*service.Client, *servedRequest) { return router, reqs[seq[i]] }, untraced)
	h2, err := health(ctx, backends)
	if err != nil {
		return err
	}
	var submit, first, report, firstRouted []float64
	for i := range direct {
		for _, res := range []jobResult{direct[i], routed[i]} {
			if res.err != nil {
				return res.err
			}
		}
		submit = append(submit, ms(direct[i].submit))
		first = append(first, ms(direct[i].first))
		report = append(report, ms(direct[i].report))
		firstRouted = append(firstRouted, ms(routed[i].first))
	}
	var healthz []float64
	for k := 0; k < r.scaled(50, 10); k++ {
		t := time.Now()
		if _, _, err := backends[0].ProbeHealth(ctx); err != nil {
			return err
		}
		healthz = append(healthz, ms(time.Since(t)))
	}
	r.layer["service.submit_p50_ms"] = value{median(submit), n}
	r.layer["service.first_record_p50_ms"] = value{median(first), n}
	r.layer["service.report_p50_ms"] = value{median(report), n}
	r.layer["service.healthz_p50_ms"] = value{median(healthz), len(healthz)}
	r.layer["fleet.proxy_overhead_p50_ms"] = value{median(firstRouted) - median(first), n}
	r.layer["serve.first_record_p99_ms"] = value{quantile(firstRouted, 0.99), n}

	var hits, lookups float64
	share := 0.0
	for i := range backends {
		hits += float64(h2[i].Cache.Hits - h0[i].Cache.Hits)
		lookups += float64(h2[i].Cache.Hits + h2[i].Cache.Misses - h0[i].Cache.Hits - h0[i].Cache.Misses)
		share = max(share, float64(h2[i].Jobs-h1[i].Jobs)/float64(n))
	}
	r.layer["service.simcache_hit_ratio"] = value{hits / lookups, int(lookups)}
	r.layer["fleet.owner_share_max"] = value{share, n}

	// Journal footprint: stop the fleet (gpowd compacts its store on
	// shutdown), then size the backends' state directories.
	fl.stop()
	var bytes int64
	for _, name := range backendNames {
		err := filepath.WalkDir(filepath.Join(dir, name), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				bytes += info.Size()
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	jobs := 0
	for i := range backends {
		jobs += h2[i].Jobs
	}
	r.layer["journal.bytes_per_job"] = value{float64(bytes) / float64(jobs), jobs}
	return nil
}
