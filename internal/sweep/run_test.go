package sweep

import (
	"reflect"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/simcache"
)

// probeKernel builds a small FP kernel whose memory image folds in a seed,
// so each test owns distinct content-addressed cache keys.
func probeKernel(seed int32) (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder("sweepProbe", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	b.I2F(1, kernel.R(0))
	b.MovI(2, 0)
	b.Label("loop")
	b.FFma(1, kernel.R(1), kernel.F(1.0002), kernel.F(0.125))
	b.IAdd(2, kernel.R(2), kernel.I(1))
	b.ISet(3, kernel.CmpLT, kernel.R(2), kernel.I(8))
	b.When(3).Bra("loop", "store")
	b.Label("store")
	b.LdParam(4, 0)
	b.IShl(5, kernel.R(0), kernel.I(2))
	b.IAdd(4, kernel.R(4), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(4 * 64 * 4)
	mem.Write32(out, uint32(seed))
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: 4, Y: 1},
		Block:  kernel.Dim{X: 64, Y: 1},
		Params: []uint32{out},
	}, mem
}

// probeWorkload wraps probeKernel for a given seed.
func probeWorkload(seed int32) *Workload {
	return &Workload{
		Name: "sweepProbe",
		Build: func(cfg *config.GPU) (*Instance, error) {
			l, mem := probeKernel(seed)
			return &Instance{Mem: mem, Units: []Unit{{Name: l.Prog.Name, Launch: l}}}, nil
		},
	}
}

// runSpec builds an executable 2x3 grid (timing axis x power axis) over the
// probe workload.
func runSpec(seed int32) *Spec {
	s := planSpec()
	s.Power = true
	s.Workload = func(*Cell) (*Workload, error) { return probeWorkload(seed), nil }
	return s
}

// TestRunTimingDedupCounts pins the planner's core promise at execution
// time: N power variants x one timing configuration simulate exactly once.
// The 2x3 grid (2 cluster variants x 3 process nodes) must cost exactly 2
// fresh simulations — observed on the process-wide cache counters — while
// every one of the 6 cells still gets timing and power results.
func TestRunTimingDedupCounts(t *testing.T) {
	// Start from an empty cache, so a repeated run (-count=N) simulates
	// afresh too.
	simcache.Default().Reset()
	before := simcache.Default().Stats()
	p, err := runSpec(1001).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	after := simcache.Default().Stats()

	if sims := after.Misses - before.Misses; sims != uint64(p.TimingRuns()) {
		t.Errorf("%d fresh simulations, want %d (one per timing group)", sims, p.TimingRuns())
	}
	if len(rs) != 6 {
		t.Fatalf("%d cell results, want 6", len(rs))
	}
	for _, cr := range rs {
		if cr.Units[0].Timing == nil || cr.Units[0].Power == nil {
			t.Fatalf("cell %s missing stage results", cr.Cell)
		}
	}
	// Cells of one group share the leader's timing snapshot; across groups
	// the snapshots differ.
	if rs[0].Units[0].Timing != rs[1].Units[0].Timing {
		t.Error("grouped cells should share the timing snapshot")
	}
	if rs[0].Units[0].Timing == rs[3].Units[0].Timing {
		t.Error("distinct timing groups must not share snapshots")
	}
}

// TestRunPowerMatchesDirectEvaluation pins bit-identical group pricing:
// every cell's report, priced against its group's shared timing result,
// equals an independent Simulate+EvaluatePower of that cell's exact
// configuration.
func TestRunPowerMatchesDirectEvaluation(t *testing.T) {
	p, err := runSpec(1002).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rs {
		simr, err := core.New(cr.Cell.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, mem := probeKernel(1002)
		tr, err := simr.Simulate(l, mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simr.EvaluatePower(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cr.Units[0].Power, want) {
			t.Errorf("cell %s: group-priced power diverged from direct evaluation", cr.Cell)
		}
		if !reflect.DeepEqual(cr.Units[0].Timing.Perf, tr.Perf) {
			t.Errorf("cell %s: shared timing snapshot diverged from direct simulation", cr.Cell)
		}
	}
}

// TestRunStreamsInPlanOrder: the stream callback sees every cell exactly
// once, in plan order, even though groups complete concurrently.
func TestRunStreamsInPlanOrder(t *testing.T) {
	p, err := runSpec(1003).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	rs, err := p.Run(func(cr *CellResult) { seen = append(seen, cr.Cell.Index) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(rs) {
		t.Fatalf("streamed %d cells, want %d", len(seen), len(rs))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("stream order %v, want ascending plan order", seen)
		}
	}
	for i, cr := range rs {
		if cr.Cell.Index != i {
			t.Errorf("result %d carries cell index %d", i, cr.Cell.Index)
		}
	}
}
