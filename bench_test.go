// Simulator-throughput microbenchmarks: quick A/B and pprof probes of the
// timing simulator on single Table I benchmarks, plus one probe of the
// virtual card's measurement layer. The reproduced paper
// quantities are pinned exactly by the scenario goldens in
// internal/experiments, and the measured end-to-end ledger is benchmark/.
//
//	go test -bench=Sim -benchmem -cpuprofile cpu.prof
package gpusimpow_test

import (
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/hw"
)

// benchSimulate measures simulator throughput for one benchmark on one GPU
// with the default event-driven fast-forward clock loop. The
// simulation-result cache is disabled so the numbers keep measuring the
// simulator itself (cache replay has its own benchmark below).
func benchSimulate(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	cfg := gpu()
	cfg.DisableSimCache = true
	benchSimulateCfg(b, cfg, name)
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
	benchSimulateCfg(b, gpu(), name)
}

// benchSimulateDense measures the same simulation with the dense
// tick-every-cycle loop, quantifying the fast-forward speedup (the two modes
// are bit-identical in results; see the sim package's equivalence tests).
// The result cache is disabled too: a cache hit would replay the
// event-driven run's stored result and defeat the comparison.
func benchSimulateDense(b *testing.B, gpu func() *config.GPU, name string) {
	b.Helper()
	cfg := gpu()
	cfg.DenseClock = true
	cfg.DisableSimCache = true
	benchSimulateCfg(b, cfg, name)
}

func benchSimulateCfg(b *testing.B, cfg *config.GPU, name string) {
	b.Helper()
	simr, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
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
			rep, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem)
			if err != nil {
				b.Fatal(err)
			}
			cycles += rep.Perf.Activity.Cycles
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

// Cached counterpart: the same simulation served as content-addressed cache
// hits (hash inputs, replay the stored memory image, clone the result).
func BenchmarkSimBlackScholesGT240Cached(b *testing.B) {
	benchSimulateCached(b, config.GT240, "BlackScholes")
}

// BenchmarkMeasureKernelGT240 measures one BlackScholes kernel on the
// virtual GT240 with an auto-sized 150 ms window, as MeasureKernel does,
// with the kernel's timing already in the result cache: the cost is the
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
