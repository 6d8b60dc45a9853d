package main

import (
	"fmt"
	"time"

	"gpusimpow/internal/sweep"
)

// sweepSet is the paper reproduction a user runs: Figure 6, the five
// design-choice ablations (the "ablation" composite's members, in its
// order), the energy-per-op microbenchmark and the DVFS study. Each inner
// list is one scenario as a user names it; the cold workload resets the
// simulation cache before each.
var sweepSet = [][]string{
	{"fig6"},
	{"ablation-scoreboard", "ablation-l2", "ablation-processnode", "ablation-corecount", "ablation-scheduler"},
	{"energyperop"},
	{"dvfs"},
}

// Nominal pass durations on the reference host; they only size the run.
const (
	nominalColdPass = 2500 * time.Millisecond
	nominalWarmPass = 35 * time.Millisecond
)

// scenarioRun is one sweep through the public pipeline.
type scenarioRun struct {
	plan   *sweep.Plan
	recs   []*sweep.CellRecord
	report *sweep.Report
	first  time.Duration // start to first streamed cell
	total  time.Duration
	// phase durations, for the sweep layer's per-layer metrics
	planD, runD, recordsD, reduceD time.Duration
}

// runScenario runs one registered scenario the way every front-end does:
// Lookup, Spec().Plan, Run (streaming), Records, Reduce.
func runScenario(tr *tracer, parent, pass int, name string, f sweep.Filter) (*scenarioRun, error) {
	t0 := time.Now()
	op := tr.begin("scenario "+name, parent, pass)
	defer tr.end(op)
	sc, ok := sweep.Lookup(name)
	if !ok || sc.Spec == nil || sc.Reduce == nil {
		return nil, fmt.Errorf("scenario %q is not a registered sweep with a reduction", name)
	}
	sr := &scenarioRun{}
	var err error
	step := func(layer string, d *time.Duration, fn func()) {
		id := tr.begin(layer, op, pass)
		t := time.Now()
		fn()
		*d = time.Since(t)
		tr.end(id)
	}
	step("sweep.Plan", &sr.planD, func() { sr.plan, err = sc.Spec().Plan(f) })
	if err != nil {
		return nil, err
	}
	var rs []*sweep.CellResult
	step("sweep.Run", &sr.runD, func() {
		rs, err = sr.plan.Run(func(*sweep.CellResult) {
			if sr.first == 0 {
				sr.first = time.Since(t0)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	step("sweep.Records", &sr.recordsD, func() { sr.recs = sr.plan.Records(rs) })
	step("sweep.Reduce", &sr.reduceD, func() { sr.report, err = sc.Reduce(sr.recs, f) })
	if err != nil {
		return nil, err
	}
	sr.total = time.Since(t0)
	return sr, nil
}

// timingWarpInstrs sums the warp instructions of a record list's timing
// groups: each group's leader carries the group's shared timing results.
func timingWarpInstrs(recs []*sweep.CellRecord) uint64 {
	var n uint64
	for _, rec := range recs {
		if rec.Index != rec.GroupLeader {
			continue
		}
		for _, u := range rec.Units {
			if u.Timing != nil {
				n += u.Timing.WarpInstrs
			}
		}
	}
	return n
}

// sweepResult is one pass of the scenario set: its time in the pipeline
// (resets and verification excluded), records, timing-group warp
// instructions and each scenario's start-to-first-cell latency.
type sweepResult struct {
	d     time.Duration
	recs  int
	wi    uint64
	first map[string]time.Duration
}

// sweepPass runs the scenario set once in the given scenario order and
// verifies every record stream. cold resets the simulation cache before
// each scenario.
func sweepPass(r *runCtx, tr *tracer, pass int, order []int, cold bool) (sweepResult, error) {
	res := sweepResult{first: map[string]time.Duration{}}
	root := tr.begin("pass", -1, pass)
	defer tr.end(root)
	for _, si := range order {
		if cold {
			r.resetCache()
		}
		for _, name := range sweepSet[si] {
			sr, err := runScenario(tr, root, pass, name, nil)
			if err != nil {
				return res, err
			}
			res.d += sr.total
			res.recs += len(sr.recs)
			res.wi += timingWarpInstrs(sr.recs)
			res.first[name] = sr.first
			r.checkScenario(name, sr.recs)
			if name == "fig6" {
				r.checkFig6(sr.report)
			}
		}
	}
	return res, nil
}

// runSweeps runs sweep-cold (cold) or sweep-warm. Set-up resolves and
// plans every scenario of the set; for sweep-warm it also resets the cache
// and runs one untimed cold pass, so every timed timing group is a hit.
func runSweeps(r *runCtx, cold bool) error {
	nominal, minPasses := nominalWarmPass, 2
	if cold {
		nominal, minPasses = nominalColdPass, 3
	}
	k := passesPerSample(nominal)
	passes := (r.passCount(nominal, minPasses) + k - 1) / k * k
	orders := make([][]int, passes)
	for p := range orders {
		orders[p] = r.rng.Perm(len(sweepSet))
	}

	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, group := range sweepSet {
			for _, name := range group {
				sc, ok := sweep.Lookup(name)
				if !ok || sc.Spec == nil {
					return fmt.Errorf("scenario %q is not a registered sweep", name)
				}
				if _, err := sc.Spec().Plan(nil); err != nil {
					return err
				}
			}
		}
		if !cold {
			r.resetCache()
			if _, err := sweepPass(r, nil, -1, []int{0, 1, 2, 3}, false); err != nil {
				return err
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	rss, err := endSetup()
	if err != nil {
		return err
	}
	defer rss.stop()

	// Each sample is the fastest of k back-to-back passes; each scenario's
	// first-record sample is its fastest of the same k.
	first := map[string][]float64{}
	for p0 := 0; p0 < passes; p0 += k {
		var best sweepResult
		bestFirst := map[string]time.Duration{}
		for p := p0; p < p0+k; p++ {
			done := r.pass(p)
			res, err := sweepPass(r, r.tr(p), p, orders[p], cold)
			if err != nil {
				return err
			}
			done(ms(res.d))
			r.attempted += len(res.first)
			if p == p0 || res.d < best.d {
				best = res
			}
			for name, f := range res.first {
				if b, ok := bestFirst[name]; !ok || f < b {
					bestFirst[name] = f
				}
			}
		}
		r.passMS = append(r.passMS, ms(best.d))
		r.recPerS = append(r.recPerS, float64(best.recs)/best.d.Seconds())
		r.wiPerS = append(r.wiPerS, float64(best.wi)/best.d.Seconds())
		for name, f := range bestFirst {
			first[name] = append(first[name], ms(f))
		}
	}
	r.firstMS = opMedians(first)
	return r.keepRSS(rss)
}
