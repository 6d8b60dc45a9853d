package experiments

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// TestMeasureMemoDeterminism runs fig6 (a card session per cell) and
// energyperop (one shared card) twice in one process after a cache Reset:
// pass 1 simulates and measures everything cold, pass 2 takes every
// measurement from the memo. Both record streams must equal the pinned
// records byte for byte.
func TestMeasureMemoDeterminism(t *testing.T) {
	for _, name := range []string{"fig6", "energyperop"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && heavyScenarios[name] {
				t.Skip("heavy scenario in -short mode")
			}
			sc, ok := sweep.Lookup(name)
			if !ok {
				t.Fatalf("scenario %s not registered", name)
			}
			pinned, err := os.ReadFile(recordsPath(name))
			if err != nil {
				t.Fatal(err)
			}
			simcache.Default().Reset()
			for pass := 1; pass <= 2; pass++ {
				plan, err := sc.Spec().Plan(nil)
				if err != nil {
					t.Fatal(err)
				}
				before := simcache.Default().Stats()
				rs, err := plan.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				after := simcache.Default().Stats()
				if got := encodeRecords(t, plan.Records(rs)); !bytes.Equal(got, pinned) {
					t.Errorf("pass %d diverged from the pinned records\n%s", pass, diffLines(pinned, got))
				}
				if pass == 2 && (after.MeasureHits == before.MeasureHits || after.MeasureMisses != before.MeasureMisses) {
					t.Errorf("pass 2: %d measurement hits, %d misses; want only hits",
						after.MeasureHits-before.MeasureHits, after.MeasureMisses-before.MeasureMisses)
				}
			}
		})
	}
}

// warmSweepSet is the paper reproduction the benchmark harness sweeps:
// Figure 6, the five design-choice ablations, the energy-per-op
// microbenchmark and the DVFS study.
var warmSweepSet = []string{
	"fig6",
	"ablation-scoreboard", "ablation-l2", "ablation-processnode", "ablation-corecount", "ablation-scheduler",
	"energyperop", "dvfs",
}

// TestWarmPassKeysFromChainMemo counts the result cache's keys over a warm
// pass of every scenario of the sweep set, its reduction included: every
// launch — a suite benchmark's first, on the image its instance restored
// from the benchmark's template, a host-built kernel's, on the image
// thawed from its workload's frozen one, and the chained ones — is keyed
// from the chain memo, so no launch key rehashes an image. Figure 6's
// warm plan runs every suite launch on both GPUs.
func TestWarmPassKeysFromChainMemo(t *testing.T) {
	var suiteLaunches uint64
	for _, f := range bench.Suite() {
		inst, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		suiteLaunches += 2 * uint64(len(inst.Runs)) // both GPUs
	}
	runs := func(a, b simcache.Stats) uint64 { return b.Hits + b.Misses - a.Hits - a.Misses }
	for _, name := range warmSweepSet {
		t.Run(name, func(t *testing.T) {
			sc, ok := sweep.Lookup(name)
			if !ok {
				t.Fatalf("scenario %s not registered", name)
			}
			var before, planned, after simcache.Stats
			for pass := 1; pass <= 2; pass++ {
				plan, err := sc.Spec().Plan(nil)
				if err != nil {
					t.Fatal(err)
				}
				before = simcache.Default().Stats()
				rs, err := plan.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				planned = simcache.Default().Stats()
				if _, err := sc.Reduce(plan.Records(rs), nil); err != nil {
					t.Fatal(err)
				}
				after = simcache.Default().Stats()
			}
			n, misses, chained := runs(before, after), after.Misses-before.Misses, after.ChainKeys-before.ChainKeys
			if n == 0 || misses != 0 || chained != n {
				t.Errorf("warm pass: %d cache runs (%d misses), %d keyed from the chain memo; want every run a hit keyed from the memo",
					n, misses, chained)
			}
			if name == "fig6" && runs(before, planned) != suiteLaunches {
				t.Errorf("warm plan: %d cache runs, want %d suite launches", runs(before, planned), suiteLaunches)
			}
		})
	}
}

// hostBuilders are the builders behind the host-built workloads, by
// workload name, called afresh by TestHostWorkloadTemplates.
var hostBuilders = map[string]func(*config.GPU) (*kernel.Launch, *kernel.GlobalMem){
	"ablation": ablationKernel,
	"l2reuse":  l2ReuseKernel,
	"fpBusy":   fpBusy,
	"lfsr31":   func(c *config.GPU) (*kernel.Launch, *kernel.GlobalMem) { return lfsrKernel(c.NumCores(), 31) },
	"lfsr1":    func(c *config.GPU) (*kernel.Launch, *kernel.GlobalMem) { return lfsrKernel(c.NumCores(), 1) },
	"mandel31": func(c *config.GPU) (*kernel.Launch, *kernel.GlobalMem) { return mandelbrotKernel(c.NumCores(), 31) },
	"mandel1":  func(c *config.GPU) (*kernel.Launch, *kernel.GlobalMem) { return mandelbrotKernel(c.NumCores(), 1) },
}

// checkHostBuild builds w for cfg and checks the instance against a fresh
// builder call: the same image, carrying that image's digest, and a launch
// and program deeply equal to the fresh build's, named as the workload.
func checkHostBuild(t *testing.T, w *sweep.Workload, cfg *config.GPU, where string) *sweep.Instance {
	t.Helper()
	fresh := hostBuilders[w.Name]
	if fresh == nil {
		t.Fatalf("%s: workload %s has no builder", where, w.Name)
	}
	l, mem := fresh(cfg)
	if l.Prog.Name != w.Name {
		t.Errorf("%s: workload %s builds program %s", where, w.Name, l.Prog.Name)
	}
	inst, err := w.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mem.ContentDigest()
	if got := inst.Mem.ContentDigest(); got != want {
		t.Errorf("%s: image digest %x, a fresh build's is %x", where, got, want)
	}
	if d, ok := inst.Mem.Digest(); !ok || d != want {
		t.Errorf("%s: image carries digest %x (set %v), want %x", where, d, ok, want)
	}
	// Both programs decode and digest first: the decode table is built
	// lazily, on a program's first execution, and the digest on its first
	// cached launch.
	l.Prog.Decoded()
	l.Prog.Digest()
	if len(inst.Units) == 1 {
		inst.Units[0].Launch.Prog.Decoded()
		inst.Units[0].Launch.Prog.Digest()
	}
	if len(inst.Units) != 1 || !reflect.DeepEqual(inst.Units[0].Launch, l) {
		t.Errorf("%s: launch differs from a fresh build's", where)
	}
	return inst
}

// TestHostWorkloadTemplates checks the memo behind the host-built
// workloads (checkHostBuild) on every registered cell that uses one, and
// on both validated GPUs, whose core counts differ. After one instance
// per timing group is simulated, the next instance is still the fresh
// build.
func TestHostWorkloadTemplates(t *testing.T) {
	for _, sc := range sweep.Scenarios() {
		if sc.Spec == nil || !(strings.HasPrefix(sc.Name, "ablation-") || sc.Name == "dvfs" || sc.Name == "energyperop") {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			plan, err := sc.Spec().Plan(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range plan.Cells {
				checkHostBuild(t, c.Workload, c.Cfg, c.String())
			}
			for _, g := range plan.Groups {
				c := g.Leader()
				inst := checkHostBuild(t, c.Workload, c.Cfg, c.String())
				gpu, err := sim.New(c.Cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := gpu.Run(inst.Units[0].Launch, inst.Mem, nil); err != nil {
					t.Fatal(err)
				}
				checkHostBuild(t, c.Workload, c.Cfg, c.String())
			}
		})
	}
	t.Run("presets", func(t *testing.T) {
		for _, w := range []*sweep.Workload{ablationWorkload, l2ReuseWorkload, fpBusyWorkload,
			laneWorkloads["int31"], laneWorkloads["int1"], laneWorkloads["fp31"], laneWorkloads["fp1"]} {
			for _, cfg := range []*config.GPU{config.GT240(), config.GTX580()} {
				checkHostBuild(t, w, cfg, w.Name+"@"+cfg.Name)
			}
		}
	})
}
