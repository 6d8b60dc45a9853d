package core

import (
	"reflect"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
)

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := config.GT240()
	cfg.Clusters = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid config must be rejected")
	}
	cfg2 := config.GT240()
	cfg2.ProcessNM = 3 // sim accepts it, power tier must reject
	if _, err := New(cfg2); err == nil {
		t.Error("unsupported process node must be rejected")
	}
}

func TestRunKernelEndToEnd(t *testing.T) {
	simr, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	if simr.Config().Name != "GT240" {
		t.Error("config accessor broken")
	}
	inst, err := bench.VectorAdd()
	if err != nil {
		t.Fatal(err)
	}
	r := inst.Runs[0]
	rep, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("functional results wrong through the framework: %v", err)
	}
	if rep.Kernel != "vectorAdd" {
		t.Errorf("kernel name %q", rep.Kernel)
	}
	if rep.Perf == nil || rep.Power == nil {
		t.Fatal("incomplete report")
	}
	if rep.Power.TotalW <= rep.Power.StaticW {
		t.Error("running a kernel must add dynamic power")
	}
}

func TestStaticConsistentWithRuntime(t *testing.T) {
	simr, err := New(config.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	st := simr.Static()
	inst, err := bench.ScalarProd()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simr.RunKernel(inst.Runs[0].Launch, inst.Mem, inst.Runs[0].CMem)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Power.StaticW != st.StaticW {
		t.Errorf("static %.3f at runtime vs %.3f architectural", rep.Power.StaticW, st.StaticW)
	}
	if rep.Power.DynamicW > st.PeakDynamicW {
		t.Errorf("runtime dynamic %.2f exceeds peak %.2f", rep.Power.DynamicW, st.PeakDynamicW)
	}
}

func TestMultiKernelBenchmarkStateFlow(t *testing.T) {
	// bfs needs the state left by earlier launches: the framework must not
	// reset memory between kernels.
	simr, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.BFS()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range inst.Runs {
		if _, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("bfs through the framework: %v", err)
	}
}

// TestCachedVsFreshEquivalence is the determinism contract of the
// simulation-result cache: for both GPUs and several kernels (including a
// multi-kernel benchmark whose launches chain through the memory image),
// every reported metric — performance counters and the full power breakdown
// — must be bit-identical between the fresh-simulation path
// (DisableSimCache) and the cached path, on both a cold pass (misses fill
// the cache) and a warm pass (every launch replays). Run under -race via
// make ci.
func TestCachedVsFreshEquivalence(t *testing.T) {
	gpus := map[string]func() *config.GPU{"GT240": config.GT240, "GTX580": config.GTX580}
	kernels := []string{"vectorAdd", "BlackScholes", "bfs", "mergeSort"}

	type outcome struct {
		reps  []*KernelReport
		final []uint32
	}
	runSuite := func(t *testing.T, cfg *config.GPU, kernelName string) outcome {
		t.Helper()
		simr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := bench.ByName(kernelName)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		for _, r := range inst.Runs {
			rep, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem)
			if err != nil {
				t.Fatal(err)
			}
			o.reps = append(o.reps, rep)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("verification failed: %v", err)
		}
		o.final = append([]uint32(nil), inst.Mem.Words()...)
		return o
	}

	for gpuName, mk := range gpus {
		for _, kern := range kernels {
			t.Run(gpuName+"/"+kern, func(t *testing.T) {
				fresh := mk()
				fresh.DisableSimCache = true
				want := runSuite(t, fresh, kern)
				cold := runSuite(t, mk(), kern) // fills (or reuses) cache entries
				warm := runSuite(t, mk(), kern) // replays every launch
				for pass, got := range map[string]outcome{"cold": cold, "warm": warm} {
					for i := range want.reps {
						if !reflect.DeepEqual(got.reps[i].Perf, want.reps[i].Perf) {
							t.Errorf("%s pass: launch %d perf result differs from fresh", pass, i)
						}
						if !reflect.DeepEqual(got.reps[i].Power, want.reps[i].Power) {
							t.Errorf("%s pass: launch %d power report differs from fresh", pass, i)
						}
					}
					if !reflect.DeepEqual(got.final, want.final) {
						t.Errorf("%s pass: final memory image differs from fresh", pass)
					}
				}
			})
		}
	}
}

// TestEvaluatePowerBatchEquivalence pins the batched power entry point's
// contract: one shared timing result priced under N power-parameter
// variants through EvaluatePowerBatch is bit-identical to N sequential
// EvaluatePower calls on per-variant evaluators (and to full per-variant
// Simulators), including the leader's shared-model evaluator.
func TestEvaluatePowerBatchEquivalence(t *testing.T) {
	leader, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bench.VectorAdd()
	if err != nil {
		t.Fatal(err)
	}
	r := inst.Runs[0]
	tr, err := leader.Simulate(r.Launch, inst.Mem, r.CMem)
	if err != nil {
		t.Fatal(err)
	}

	// Power variants of the same timing configuration: process node and
	// energy-anchor changes only.
	variants := []*config.GPU{config.GT240()}
	for _, nm := range []float64{65, 32, 28} {
		c := config.GT240()
		c.ProcessNM = nm
		variants = append(variants, c)
	}
	tuned := config.GT240()
	tuned.Power.FPOpPJ *= 1.5
	tuned.Power.DynScaleFactor *= 0.9
	variants = append(variants, tuned)

	evs := []*PowerEvaluator{leader.PowerEvaluator()}
	for _, c := range variants[1:] {
		ev, err := NewPowerEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}

	batch, err := EvaluatePowerBatch(evs, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(evs) {
		t.Fatalf("%d batch reports, want %d", len(batch), len(evs))
	}
	for i, ev := range evs {
		seq, err := ev.EvaluatePower(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], seq) {
			t.Errorf("variant %d: batched report differs from sequential EvaluatePower", i)
		}
		// Cross-check against a full Simulator for the same variant (the
		// pre-batching way to price a variant).
		full, err := New(variants[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.EvaluatePower(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Errorf("variant %d: batched report differs from full-simulator evaluation", i)
		}
	}

	// The evaluator's static report matches the full simulator's.
	if !reflect.DeepEqual(evs[1].Static(), mustNew(t, variants[1]).Static()) {
		t.Error("PowerEvaluator.Static diverged from Simulator.Static")
	}
}

func mustNew(t *testing.T, cfg *config.GPU) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
