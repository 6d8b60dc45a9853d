package main

import (
	"fmt"
	"time"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
)

// suiteGPUs are the two validated cards, in Figure 6 order.
var suiteGPUs = []func() *config.GPU{config.GT240, config.GTX580}

// suiteOp is one sim-suite op: one Table I benchmark on one GPU.
type suiteOp struct {
	gpu   int
	bench bench.Factory
}

func suiteOps() []suiteOp {
	var ops []suiteOp
	for g := range suiteGPUs {
		for _, f := range bench.Suite() {
			ops = append(ops, suiteOp{g, f})
		}
	}
	return ops
}

// nominalSuitePass is one sim-suite pass on the reference host (2-CPU
// Xeon, default settings); it only sizes the run.
const nominalSuitePass = 1800 * time.Millisecond

// runSimSuite runs the sim-suite workload. Set-up builds both simulators
// and every pass's benchmark inputs (instances are consumed by execution).
// Each pass resets the simulation cache, then simulates, prices and
// verifies every benchmark on both GPUs one at a time, in a seeded order.
func runSimSuite(r *runCtx) error {
	ops := suiteOps()
	passes := r.passCount(nominalSuitePass, 2)
	orders := make([][]int, passes)
	for p := range orders {
		orders[p] = r.rng.Perm(len(ops))
	}

	var sims []*core.Simulator
	var inputs [][]*bench.Instance // [pass][op]
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		sims = sims[:0]
		for _, mk := range suiteGPUs {
			s, err := core.New(mk())
			if err != nil {
				return err
			}
			sims = append(sims, s)
		}
		inputs = make([][]*bench.Instance, passes)
		for p := range inputs {
			inputs[p] = make([]*bench.Instance, len(ops))
			for i, op := range ops {
				inst, err := op.bench.Make()
				if err != nil {
					return fmt.Errorf("building %s: %w", op.bench.Name, err)
				}
				inputs[p][i] = inst
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	rss, err := endSetup()
	if err != nil {
		return err
	}
	defer rss.stop()

	first := map[string][]float64{}
	for p := 0; p < passes; p++ {
		tr := r.tr(p)
		done := r.pass(p)
		r.resetCache()
		var got suiteCounts
		t0 := time.Now()
		root := tr.begin("pass", -1, p)
		for _, i := range orders[p] {
			op, inst := ops[i], inputs[p][i]
			name := sims[op.gpu].Config().Name + "/" + op.bench.Name
			t := time.Now()
			id := tr.begin("op", root, p)
			r.attempted++
			if err := simulateBenchmark(tr, id, p, sims[op.gpu], inst, &got); err != nil {
				r.fail("%s: %v", name, err)
			}
			tr.end(id)
			first[name] = append(first[name], ms(time.Since(t)))
		}
		tr.end(root)
		d := time.Since(t0)
		done(ms(d))
		r.passMS = append(r.passMS, ms(d))
		inputs[p] = nil
		r.recPerS = append(r.recPerS, float64(len(ops))/d.Seconds())
		r.wiPerS = append(r.wiPerS, float64(got.WarpInstrs)/d.Seconds())
		r.observed.SimSuite = got
		if got != expected.SimSuite {
			r.fail("sim-suite pass %d: %+v, want %+v", p, got, expected.SimSuite)
		}
	}

	r.firstMS = opMedians(first)
	if err := r.keepRSS(rss); err != nil {
		return err
	}
	// Figure 6's errors over the simulations this workload ran (the cache
	// now holds them, so this adds the measurement and reduction only).
	fig6, err := runScenario(nil, -1, -1, "fig6", nil)
	if err != nil {
		return err
	}
	r.checkFig6(fig6.report)
	return nil
}

// simulateBenchmark runs one benchmark instance's launches in order on one
// simulator, prices each, and verifies the final memory.
func simulateBenchmark(tr *tracer, parent, pass int, s *core.Simulator, inst *bench.Instance, got *suiteCounts) error {
	for _, run := range inst.Runs {
		id := tr.begin("core.Simulate", parent, pass)
		res, err := s.Simulate(run.Launch, inst.Mem, run.CMem)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("core.EvaluatePower", parent, pass)
		_, err = s.EvaluatePower(res)
		tr.end(id)
		if err != nil {
			return err
		}
		got.Launches++
		got.Cycles += res.Perf.Activity.Cycles
		got.WarpInstrs += res.Perf.WarpInstrs
	}
	id := tr.begin("bench.Verify", parent, pass)
	defer tr.end(id)
	return inst.Verify()
}
