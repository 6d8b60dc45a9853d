package power

import (
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
)

func mustModel(t *testing.T, cfg *config.GPU) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStaticMatchesTableIVTargets(t *testing.T) {
	// Paper Table IV: GT240 simulated 17.9 W / 105 mm^2, GTX580 simulated
	// 81.5 W / 306 mm^2. Our model is calibrated to reproduce these.
	cases := []struct {
		cfg              *config.GPU
		staticW, areaMM2 float64
	}{
		{config.GT240(), 17.9, 105},
		{config.GTX580(), 81.5, 306},
	}
	for _, c := range cases {
		s := mustModel(t, c.cfg).Static()
		if rel(s.StaticW, c.staticW) > 0.05 {
			t.Errorf("%s static %.2f W, want ~%.1f W", c.cfg.Name, s.StaticW, c.staticW)
		}
		if rel(s.AreaMM2, c.areaMM2) > 0.05 {
			t.Errorf("%s area %.1f mm^2, want ~%.0f mm^2", c.cfg.Name, s.AreaMM2, c.areaMM2)
		}
		if s.PeakDynamicW <= s.StaticW {
			t.Errorf("%s peak dynamic %.1f should exceed static %.1f", c.cfg.Name, s.PeakDynamicW, s.StaticW)
		}
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestStaticBreakdownShape(t *testing.T) {
	s := mustModel(t, config.GT240()).Static()
	cores, ok := Find(s.Items, "Cores")
	if !ok {
		t.Fatal("no Cores item")
	}
	// Cores dominate static power (paper: 15.4 of 17.9 W).
	if cores.StaticW < 0.6*s.StaticW {
		t.Errorf("cores static %.2f below 60%% of %.2f", cores.StaticW, s.StaticW)
	}
	var sum float64
	for _, it := range s.Items {
		if it.StaticW <= 0 {
			t.Errorf("%s: non-positive static", it.Name)
		}
		sum += it.StaticW
	}
	if rel(sum, s.StaticW) > 0.10 {
		t.Errorf("items sum %.2f far from total %.2f", sum, s.StaticW)
	}
}

func TestScoreboardPresenceAffectsModel(t *testing.T) {
	with := config.GT240()
	with.HasScoreboard = true
	with.ScoreboardEntries = 6
	sWith := mustModel(t, with).Static()
	sWithout := mustModel(t, config.GT240()).Static()
	if sWith.StaticW <= sWithout.StaticW {
		t.Error("adding a scoreboard must add leakage")
	}
}

func TestProcessNodeScaling(t *testing.T) {
	old := config.GT240()
	old.ProcessNM = 65
	sOld := mustModel(t, old).Static()
	sNew := mustModel(t, config.GT240()).Static()
	// At the older node the analytic structures are larger; the calibrated
	// undiff terms are constant, so total area must grow.
	if sOld.AreaMM2 <= sNew.AreaMM2 {
		t.Errorf("65 nm area %.1f should exceed 40 nm area %.1f", sOld.AreaMM2, sNew.AreaMM2)
	}
}

func runBusyKernel(t *testing.T, cfg *config.GPU) *sim.Result {
	t.Helper()
	b := kernel.NewBuilder("busyfp", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.I2F(1, kernel.R(0))
	b.MovI(2, 0)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.FFma(1, kernel.R(1), kernel.F(1.0001), kernel.F(0.5))
	}
	b.IAdd(2, kernel.R(2), kernel.I(1))
	b.ISet(3, kernel.CmpLT, kernel.R(2), kernel.I(30))
	b.When(3).Bra("loop", "exit")
	b.Label("exit")
	b.LdParam(4, 0)
	b.IShl(5, kernel.R(0), kernel.I(2))
	b.IAdd(4, kernel.R(4), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
	b.Exit()
	p := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(256 * 4)
	l := &kernel.Launch{Prog: p, Grid: kernel.Dim{X: cfg.NumCores() * 2, Y: 1},
		Block: kernel.Dim{X: 256, Y: 1}, Params: []uint32{out}}
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(l, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRuntimeReportShape(t *testing.T) {
	cfg := config.GT240()
	m := mustModel(t, cfg)
	res := runBusyKernel(t, cfg)
	r, err := m.Evaluate(res)
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicW <= 0 || r.StaticW <= 0 {
		t.Fatalf("power must be positive: %+v", r)
	}
	if rel(r.TotalW, r.StaticW+r.DynamicW) > 1e-9 {
		t.Error("total != static + dynamic")
	}
	// Static matches the architectural estimate.
	if rel(r.StaticW, m.Static().StaticW) > 1e-9 {
		t.Error("runtime static differs from architectural static")
	}
	// GPU-level: cores dominate (paper: 82.2% for blackscholes).
	cores, _ := Find(r.GPU, "Cores")
	if cores.Total() < 0.6*r.TotalW {
		t.Errorf("cores %.2f W below 60%% of total %.2f W", cores.Total(), r.TotalW)
	}
	// Core-level, FP-heavy kernel: execution units are the top dynamic
	// consumer, register file second (paper Table V ordering).
	exe, _ := Find(r.Core, "Execution Units")
	rf, _ := Find(r.Core, "Register File")
	wcu, _ := Find(r.Core, "WCU")
	if !(exe.DynamicW > rf.DynamicW && rf.DynamicW > wcu.DynamicW) {
		t.Errorf("expected EXE > RF > WCU dynamic, got %.4f / %.4f / %.4f",
			exe.DynamicW, rf.DynamicW, wcu.DynamicW)
	}
	undiff, _ := Find(r.Core, "Undiff. Core")
	if undiff.DynamicW != 0 {
		t.Error("undifferentiated core must be purely static (no activity factors)")
	}
	if undiff.StaticW != cfg.Power.UndiffCoreStaticW {
		t.Error("undiff static must equal the calibration anchor")
	}
	// DRAM power reported separately and positive under traffic.
	if r.DRAMW <= 0 {
		t.Error("DRAM power missing")
	}
	if rel(r.DRAMW, r.DRAM.Total()) > 1e-9 {
		t.Error("DRAM breakdown inconsistent with total")
	}
	// Peak dynamic bounds runtime dynamic.
	if r.DynamicW > m.Static().PeakDynamicW {
		t.Errorf("runtime dynamic %.1f exceeds peak %.1f", r.DynamicW, m.Static().PeakDynamicW)
	}
}

func TestRuntimeErrors(t *testing.T) {
	m := mustModel(t, config.GT240())
	if _, err := m.Evaluate(nil); err == nil {
		t.Error("nil result should error")
	}
	if _, err := m.Evaluate(&sim.Result{}); err == nil {
		t.Error("zero-cycle result should error")
	}
}

// Evaluate refuses L1 activity no simulation produces: more misses than
// reads would wrap the hit count to ~1.8e19 line accesses.
func TestEvaluateRejectsImpossibleL1Activity(t *testing.T) {
	m := mustModel(t, config.GTX580())
	for _, c := range []struct {
		reads, misses uint64
		ok            bool
	}{
		{0, 0, true},
		{10, 0, true},
		{10, 10, true},
		{10, 11, false},
		{0, 1, false},
	} {
		res := &sim.Result{}
		res.Activity.Cycles = 1000
		res.Activity.L1Reads, res.Activity.L1Misses = c.reads, c.misses
		_, err := m.Evaluate(res)
		if (err == nil) != c.ok {
			t.Errorf("reads %d, misses %d: err = %v, want ok=%v", c.reads, c.misses, err, c.ok)
		}
	}
}

func TestDynScaleFactor(t *testing.T) {
	cfg := config.GT240()
	res := runBusyKernel(t, cfg)
	r1, err := mustModel(t, cfg).Evaluate(res)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := config.GT240()
	cfg2.Power.DynScaleFactor = 2
	r2, err := mustModel(t, cfg2).Evaluate(res)
	if err != nil {
		t.Fatal(err)
	}
	if rel(r2.DynamicW, 2*r1.DynamicW) > 0.01 {
		t.Errorf("doubling DynScaleFactor should double dynamic: %.2f vs %.2f", r2.DynamicW, r1.DynamicW)
	}
	if rel(r2.StaticW, r1.StaticW) > 1e-9 {
		t.Error("DynScaleFactor must not touch static power")
	}
}

func TestHigherFPEnergyRaisesDynamic(t *testing.T) {
	cfg := config.GT240()
	res := runBusyKernel(t, cfg)
	base, _ := mustModel(t, cfg).Evaluate(res)
	hot := config.GT240()
	hot.Power.FPOpPJ = 150
	r, _ := mustModel(t, hot).Evaluate(res)
	if r.DynamicW <= base.DynamicW {
		t.Error("doubling FP op energy must raise dynamic power of an FP kernel")
	}
}

func TestComponentBudgetsPopulated(t *testing.T) {
	m := mustModel(t, config.GTX580())
	bud := m.componentBudgets()
	for _, name := range []string{"wst", "ibuf", "reconv", "scheduler", "rfBank", "oc",
		"opXbar", "sagu", "coalInQ", "coalPRT", "smemBank", "smemXbar", "ccTag",
		"ccData", "nocXbar", "mcLogic", "scoreboard", "l1Tag", "l2Tag", "l2Data"} {
		b, ok := bud[name]
		if !ok {
			t.Fatalf("missing component %s", name)
		}
		if b.AreaMM2 <= 0 {
			t.Errorf("%s: zero area on GTX580", name)
		}
	}
	// GT240 has no scoreboard / L1 / L2: those budgets must be zero.
	m2 := mustModel(t, config.GT240())
	bud2 := m2.componentBudgets()
	for _, name := range []string{"scoreboard", "l1Tag", "l2Tag", "l2Data"} {
		if bud2[name].AreaMM2 != 0 {
			t.Errorf("GT240 %s should be absent", name)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.GT240()
	cfg.ProcessNM = 5 // outside technology range
	if _, err := New(cfg); err == nil {
		t.Error("unsupported node must be rejected")
	}
	cfg2 := config.GT240()
	cfg2.Clusters = 0
	if _, err := New(cfg2); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestFindHelper(t *testing.T) {
	items := []Item{{Name: "A", StaticW: 1, DynamicW: 2}}
	if it, ok := Find(items, "A"); !ok || it.Total() != 3 {
		t.Error("Find broken")
	}
	if _, ok := Find(items, "B"); ok {
		t.Error("Find should miss absent names")
	}
}
