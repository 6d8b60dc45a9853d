package bench

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
)

// runFunctional executes an instance's launches through the functional
// interpreter (no timing) and verifies the result.
func runFunctional(t *testing.T, inst *Instance) *kernel.InterpStats {
	t.Helper()
	total := &kernel.InterpStats{}
	for _, r := range inst.Runs {
		st, err := kernel.Interp(r.Launch, inst.Mem, cmemOf(r))
		if err != nil {
			t.Fatalf("%s / %s: %v", inst.Name, r.Name, err)
		}
		total.WarpInstrs += st.WarpInstrs
		total.ThreadInstrs += st.ThreadInstrs
		total.Divergences += st.Divergences
		total.Barriers += st.Barriers
		for i := range total.PerClass {
			total.PerClass[i] += st.PerClass[i]
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("%s: verification failed: %v", inst.Name, err)
	}
	return total
}

func cmemOf(r Run) *kernel.ConstMem {
	if r.CMem != nil {
		return r.CMem
	}
	return nil
}

func TestAllBenchmarksFunctionallyCorrect(t *testing.T) {
	for _, f := range Suite() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			inst, err := f.Make()
			if err != nil {
				t.Fatal(err)
			}
			st := runFunctional(t, inst)
			if st.WarpInstrs == 0 {
				t.Error("no instructions executed")
			}
		})
	}
}

func TestSuiteMatchesTableI(t *testing.T) {
	// Table I: 11 benchmarks; Fig. 6 additionally shows needle.
	suite := Suite()
	if len(suite) != 12 {
		t.Fatalf("suite has %d benchmarks, want 12 (Table I + needle)", len(suite))
	}
	wantKernels := map[string]int{
		"backprop": 2, "heartwall": 1, "kmeans": 2, "pathfinder": 1,
		"bfs": 2, "hotspot": 1, "matrixMul": 1, "BlackScholes": 1,
		"mergeSort": 4, "scalarProd": 1, "vectorAdd": 1, "needle": 2,
	}
	totalKernels := 0
	for _, f := range suite {
		if want, ok := wantKernels[f.Name]; !ok || f.Kernels != want {
			t.Errorf("%s: %d kernels, want %d", f.Name, f.Kernels, wantKernels[f.Name])
		}
		totalKernels += f.Kernels
	}
	if totalKernels != 19 {
		t.Errorf("total distinct kernels %d, want 19 (Fig. 6 bars)", totalKernels)
	}
	// Every factory produces instances whose run names match its kernels.
	for _, f := range suite {
		inst, err := f.Make()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		names := map[string]bool{}
		for _, r := range inst.Runs {
			names[r.Name] = true
			if err := r.Launch.Validate(); err != nil {
				t.Errorf("%s / %s: invalid launch: %v", f.Name, r.Name, err)
			}
		}
		if len(names) != f.Kernels {
			t.Errorf("%s: %d distinct kernel names, factory claims %d", f.Name, len(names), f.Kernels)
		}
	}
}

func TestBenchmarksFreshPerInstance(t *testing.T) {
	// Two instances must be independent: running one never affects the other.
	a1, err := VectorAdd()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := VectorAdd()
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, a1)
	// a2 not yet run: its output must still verify as unwritten -> fails.
	if err := a2.Verify(); err == nil {
		t.Error("unrun instance unexpectedly verifies (shared state?)")
	}
	runFunctional(t, a2)
}

// TestRunLeavesSiblingImage: an instance shares its template's input
// words until its first write. Running and verifying one instance of
// every benchmark leaves a second instance's image, hashed in full, at
// the template's digest.
func TestRunLeavesSiblingImage(t *testing.T) {
	for _, f := range Suite() {
		ran, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		idle, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := idle.Mem.Digest()
		if !ok {
			t.Fatalf("%s: a fresh instance carries no digest", f.Name)
		}
		runFunctional(t, ran)
		if ran.Mem.ContentDigest() == want {
			t.Errorf("%s: running an instance left its image unchanged", f.Name)
		}
		if idle.Mem.ContentDigest() != want {
			t.Errorf("%s: running one instance changed another's image", f.Name)
		}
	}
}

func TestWorkloadCharacteristicsSpan(t *testing.T) {
	// The paper stresses that the benchmarks cover "an equally wide variety
	// of algorithmic (and thus, dynamic power) characteristics". Check a few
	// distinguishing features.
	get := func(name string) *kernel.InterpStats {
		f, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		return runFunctional(t, inst)
	}
	bs := get("BlackScholes")
	if bs.PerClass[kernel.ClassSFU] == 0 {
		t.Error("BlackScholes must exercise the SFUs")
	}
	bfs := get("bfs")
	if bfs.Divergences == 0 {
		t.Error("bfs must diverge")
	}
	mm := get("matrixMul")
	if mm.Barriers == 0 {
		t.Error("matrixMul must synchronise at barriers")
	}
	va := get("vectorAdd")
	memRatioVA := float64(va.PerClass[kernel.ClassMem]) / float64(va.WarpInstrs)
	memRatioBS := float64(bs.PerClass[kernel.ClassMem]) / float64(bs.WarpInstrs)
	if memRatioVA <= memRatioBS {
		t.Error("vectorAdd should be markedly more memory-bound than BlackScholes")
	}
}

func TestMergeSortInPlaceKernelMarked(t *testing.T) {
	inst, err := MergeSort()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range inst.Runs {
		if r.Name == "mergeSort3" && r.MaxRepeats != 1 {
			t.Error("mergeSort3 must be marked non-repeatable (paper's measurement artifact)")
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown benchmark should error")
	}
	f, err := ByName("hotspot")
	if err != nil || f.Name != "hotspot" {
		t.Errorf("ByName(hotspot) = %v, %v", f.Name, err)
	}
}

// TestBenchmarksOnTimingSimulator runs two representative benchmarks through
// the full cycle-level simulator on the GT240 to check that timing-mode
// execution also produces correct results.
func TestBenchmarksOnTimingSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation in -short mode")
	}
	for _, name := range []string{"vectorAdd", "mergeSort", "bfs"} {
		f, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		g, err := sim.New(config.GT240())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range inst.Runs {
			if _, err := g.Run(r.Launch, inst.Mem, cmemOf(r)); err != nil {
				t.Fatalf("%s / %s: %v", name, r.Name, err)
			}
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("%s (timing sim): %v", name, err)
		}
	}
}

// verifiedOutput names, per benchmark, a buffer its Verify reads: the
// launch that receives the buffer's address (an index into Runs; -1 is the
// last launch) and the parameter holding it.
var verifiedOutput = map[string]struct{ run, param int }{
	"backprop":     {0, 2},  // hidden
	"bfs":          {0, 5},  // cost
	"BlackScholes": {0, 3},  // call
	"heartwall":    {0, 3},  // best offsets
	"hotspot":      {-1, 1}, // the last step's temperatures
	"kmeans":       {1, 1},  // memberships
	"matrixMul":    {0, 2},  // C
	"mergeSort":    {-1, 1}, // the last round's output
	"needle":       {0, 0},  // score matrix
	"pathfinder":   {0, 1},  // last row
	"scalarProd":   {0, 2},  // dot products
	"vectorAdd":    {0, 2},  // c
}

// toleranceOutputs names, per benchmark, every buffer its Verify compares
// with a tolerance (approxEq), in verifiedOutput's terms.
var toleranceOutputs = map[string][]struct{ run, param int }{
	"backprop":     {{0, 2}, {1, 0}}, // hidden, weights
	"BlackScholes": {{0, 3}, {0, 4}}, // call, put
	"hotspot":      {{-1, 1}},        // the last step's temperatures
	"matrixMul":    {{0, 2}},         // C
	"scalarProd":   {{0, 2}},         // dot products
}

// TestVerifyCatchesCorruptOutput: Verify compares a finished instance with
// references computed once per process, and still rejects one corrupted
// output word of every benchmark, and +Inf, -Inf or NaN in the first word
// of every tolerance-checked output. A fresh instance's image carries a
// digest, and it is the image's true content digest.
func TestVerifyCatchesCorruptOutput(t *testing.T) {
	for _, f := range Suite() {
		t.Run(f.Name, func(t *testing.T) {
			out, ok := verifiedOutput[f.Name]
			if !ok {
				t.Fatal("no verified output named for this benchmark")
			}
			inst, err := f.Make()
			if err != nil {
				t.Fatal(err)
			}
			if d, ok := inst.Mem.Digest(); !ok || d != inst.Mem.ContentDigest() {
				t.Fatalf("fresh instance digest %x (set %v), its image hashes to %x", d, ok, inst.Mem.ContentDigest())
			}
			runFunctional(t, inst)
			if out.run < 0 {
				out.run += len(inst.Runs)
			}
			addr := inst.Runs[out.run].Launch.Params[out.param]
			good := inst.Mem.Read32(addr)
			// No benchmark produces 12345.0 (nor its bits as an integer)
			// at any output.
			inst.Mem.WriteF32(addr, 12345)
			if err := inst.Verify(); err == nil {
				t.Errorf("Verify accepted a corrupted word at %#x", addr)
			}
			inst.Mem.Write32(addr, good)
			for _, o := range toleranceOutputs[f.Name] {
				if o.run < 0 {
					o.run += len(inst.Runs)
				}
				addr := inst.Runs[o.run].Launch.Params[o.param]
				good := inst.Mem.Read32(addr)
				for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
					inst.Mem.WriteF32(addr, float32(v))
					if err := inst.Verify(); err == nil {
						t.Errorf("Verify accepted %v at %#x (run %d, param %d)", v, addr, o.run, o.param)
					}
				}
				inst.Mem.Write32(addr, good)
			}
			if err := inst.Verify(); err != nil {
				t.Errorf("Verify rejects the repaired image: %v", err)
			}
		})
	}
}

// TestVerifyNeverMemoizesFailure: a final image that passed, changed in
// one word and vouched for by its own digest (as the result cache vouches
// for the images it leaves), fails Verify, and fails again on a second
// call; repaired, it passes from the memo of passed digests.
func TestVerifyNeverMemoizesFailure(t *testing.T) {
	inst, err := VectorAdd()
	if err != nil {
		t.Fatal(err)
	}
	runFunctional(t, inst)
	inst.Mem.SetDigest(inst.Mem.ContentDigest())
	if err := inst.Verify(); err != nil {
		t.Fatalf("the finished image fails: %v", err)
	}
	addr := inst.Runs[0].Launch.Params[2]
	good := inst.Mem.Read32(addr)
	inst.Mem.WriteF32(addr, 12345)
	inst.Mem.SetDigest(inst.Mem.ContentDigest())
	for call := 1; call <= 2; call++ {
		if err := inst.Verify(); err == nil {
			t.Errorf("call %d: Verify accepted a corrupted word at %#x", call, addr)
		}
	}
	inst.Mem.Write32(addr, good)
	inst.Mem.SetDigest(inst.Mem.ContentDigest())
	if err := inst.Verify(); err != nil {
		t.Errorf("Verify rejects the repaired image: %v", err)
	}
}

// TestVerifyOncePerDigest counts a template's check calls: an image with
// no digest is checked on every Verify, an image with a digest is checked
// once, and another instance reaching the same digest is not checked
// again.
func TestVerifyOncePerDigest(t *testing.T) {
	mem := kernel.NewGlobalMem()
	addr := mem.Alloc(64)
	tp := newTemplate("probe", mem, nil)
	calls := 0
	tp.check = func(*kernel.GlobalMem) error { calls++; return nil }
	finish := func() *Instance {
		inst, err := instance(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Mem.Write32(addr, 7) // the "kernel": drops the digest
		return inst
	}

	a := finish()
	a.Verify()
	a.Verify()
	if calls != 2 {
		t.Fatalf("an image without a digest was checked %d times in 2 Verify calls", calls)
	}
	a.Mem.SetDigest(a.Mem.ContentDigest())
	a.Verify()
	a.Verify()
	if calls != 3 {
		t.Fatalf("an image with a digest was checked %d times in 2 Verify calls, want once", calls-2)
	}
	b := finish()
	b.Mem.SetDigest(b.Mem.ContentDigest())
	b.Verify()
	if calls != 3 {
		t.Errorf("a second instance reaching a passed digest was checked again")
	}
}

// TestInstanceAllocs: making an instance allocates its image, the
// Instance, its Runs and its Verify closure, and nothing else.
func TestInstanceAllocs(t *testing.T) {
	if _, err := VectorAdd(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { VectorAdd() }); n > 4 {
		t.Errorf("VectorAdd allocates %v times per instance, want at most 4", n)
	}
}

// TestTemplatesStayPristine runs every benchmark's instances at once on
// both validated GPUs, twice, through one result cache (the first round
// simulates, the second replays), then checks that what instances share
// with their benchmark's template — the input image's digest, the launch
// parameters, the programs and the constant images — is unchanged, and
// that a write to one instance never shows in another. Run it under -race.
func TestTemplatesStayPristine(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation in -short mode")
	}
	type shared struct {
		digest [32]byte
		runs   []Run
		params [][]uint32
		instrs [][]kernel.Instr
		cmem   [][]uint32
	}
	freeze := func(inst *Instance) shared {
		d, _ := inst.Mem.Digest()
		s := shared{digest: d, runs: inst.Runs}
		for _, r := range inst.Runs {
			s.params = append(s.params, slices.Clone(r.Launch.Params))
			s.instrs = append(s.instrs, slices.Clone(r.Launch.Prog.Instrs))
			var cw []uint32
			if r.CMem != nil {
				cw = slices.Clone(r.CMem.Words())
			}
			s.cmem = append(s.cmem, cw)
		}
		return s
	}
	fresh := func(f Factory) *Instance {
		inst, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	before := map[string]shared{}
	for _, f := range Suite() {
		before[f.Name] = freeze(fresh(f))
	}

	var c simcache.Cache
	for round := 1; round <= 2; round++ {
		var wg sync.WaitGroup
		for _, cfg := range []func() *config.GPU{config.GT240, config.GTX580} {
			for _, f := range Suite() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g, err := sim.New(cfg())
					if err != nil {
						t.Error(err)
						return
					}
					inst, err := f.Make()
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range inst.Runs {
						if _, err := c.Run(g, r.Launch, inst.Mem, r.CMem); err != nil {
							t.Errorf("round %d: %s / %s: %v", round, f.Name, r.Name, err)
							return
						}
					}
					if err := inst.Verify(); err != nil {
						t.Errorf("round %d: %s: %v", round, f.Name, err)
					}
				}()
			}
		}
		wg.Wait()
	}
	if st := c.Stats(); st.Misses == 0 || st.Hits == 0 {
		t.Errorf("cache stats %+v: want the first round to simulate and the second to replay", st)
	}

	for _, f := range Suite() {
		a, b := fresh(f), fresh(f)
		now, was := freeze(a), before[f.Name]
		for i, r := range a.Runs {
			if r.Launch != was.runs[i].Launch || r.CMem != was.runs[i].CMem {
				t.Fatalf("%s / %s: instances no longer share the template's launch", f.Name, r.Name)
			}
		}
		if now.digest != was.digest || a.Mem.ContentDigest() != was.digest {
			t.Errorf("%s: template image changed", f.Name)
		}
		if !reflect.DeepEqual(now.params, was.params) || !reflect.DeepEqual(now.instrs, was.instrs) || !reflect.DeepEqual(now.cmem, was.cmem) {
			t.Errorf("%s: a launch's parameters, program or constant image changed", f.Name)
		}
		addr := a.Runs[0].Launch.Params[0]
		want := b.Mem.Read32(addr)
		a.Mem.Write32(addr, ^want)
		if got := b.Mem.Read32(addr); got != want {
			t.Errorf("%s: a write to one instance shows in another (%#x, want %#x)", f.Name, got, want)
		}
		if d, ok := b.Mem.Digest(); !ok || d != was.digest {
			t.Errorf("%s: a write to one instance dropped another's digest", f.Name)
		}
	}
}
