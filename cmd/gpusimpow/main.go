// Command gpusimpow runs GPGPU benchmark kernels on the GPUSimPow simulator
// and reports performance, power and area — the front door of the framework.
//
// Usage:
//
//	gpusimpow -gpu GT240 -bench BlackScholes     # simulate + power profile
//	gpusimpow -gpu GTX580 -static                # area / leakage / peak power
//	gpusimpow -list                              # available benchmarks
//	gpusimpow -dumpconfig GT240 > gt240.xml      # export a config
//	gpusimpow -config my.xml -bench vectorAdd    # custom architecture
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/experiments"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

func main() {
	gpuName := flag.String("gpu", "GT240", "GPU preset (GT240, GTX580)")
	cfgPath := flag.String("config", "", "XML configuration file (overrides -gpu)")
	benchName := flag.String("bench", "", "benchmark to simulate (see -list)")
	static := flag.Bool("static", false, "print static power / area / peak dynamic and exit")
	list := flag.Bool("list", false, "list available benchmarks and exit")
	dump := flag.String("dumpconfig", "", "write the named preset as XML to stdout and exit")
	stats := flag.Bool("stats", false, "also print raw activity counters per kernel and simulation-cache statistics")
	flag.Parse()

	if err := run(os.Stdout, *gpuName, *cfgPath, *benchName, *static, *list, *dump, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "gpusimpow:", err)
		os.Exit(1)
	}
}

// run executes one invocation, writing its report to w.
func run(w io.Writer, gpuName, cfgPath, benchName string, static, list bool, dump string, stats bool) error {
	if list {
		fmt.Fprintln(w, "Benchmarks (Table I + needle):")
		for _, f := range bench.Suite() {
			fmt.Fprintf(w, "  %-14s %d kernel(s)\n", f.Name, f.Kernels)
		}
		return nil
	}
	if dump != "" {
		mk, ok := config.Presets()[dump]
		if !ok {
			return fmt.Errorf("unknown preset %q", dump)
		}
		return mk().WriteXML(w)
	}

	var cfg *config.GPU
	if cfgPath != "" {
		c, err := config.LoadFile(cfgPath)
		if err != nil {
			return err
		}
		cfg = c
	} else {
		mk, ok := config.Presets()[gpuName]
		if !ok {
			return fmt.Errorf("unknown GPU %q (have GT240, GTX580)", gpuName)
		}
		cfg = mk()
	}

	simr, err := core.New(cfg)
	if err != nil {
		return err
	}

	if static {
		s := simr.Static()
		fmt.Fprintf(w, "%s architectural estimates:\n", s.GPUName)
		fmt.Fprintf(w, "  Area:          %8.1f mm^2 (one core: %.2f mm^2)\n", s.AreaMM2, s.CoreAreaMM2)
		fmt.Fprintf(w, "  Static power:  %8.2f W\n", s.StaticW)
		fmt.Fprintf(w, "  Peak dynamic:  %8.2f W\n", s.PeakDynamicW)
		for _, it := range s.Items {
			fmt.Fprintf(w, "    %-20s %7.3f W\n", it.Name, it.StaticW)
		}
		return nil
	}

	if benchName == "" {
		return fmt.Errorf("nothing to do: pass -bench, -static, -list or -dumpconfig")
	}
	f, err := bench.ByName(benchName)
	if err != nil {
		return err
	}
	inst, err := f.Make()
	if err != nil {
		return err
	}
	for _, r := range inst.Runs {
		rep, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s: %d cycles, %.3g s, IPC %.2f, %d warp instrs ==\n",
			r.Name, rep.Perf.Activity.Cycles, rep.Perf.Seconds, rep.Perf.IPC, rep.Perf.WarpInstrs)
		if err := sweep.RenderText(w, &sweep.Report{Sections: experiments.KernelProfile(rep.Kernel, rep.Power)}); err != nil {
			return err
		}
		if stats {
			if err := rep.Perf.Activity.WriteTable(w); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	if err := inst.Verify(); err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Fprintln(w, "verification: OK")
	if stats {
		fmt.Fprintf(w, "sim-cache: %s\n", simcache.Default().Stats())
	}
	return nil
}
