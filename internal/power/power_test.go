package power

import (
	"math/rand"
	"reflect"
	"slices"
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

// runtimeAt, where the L1 hit count is computed, refuses an Activity with
// more L1 misses than reads instead of pricing the wrapped difference.
func TestRuntimeAtRejectsL1Underflow(t *testing.T) {
	m := mustModel(t, config.GT240())
	res := &sim.Result{}
	res.Activity.Cycles = 1000
	res.Activity.L1Reads, res.Activity.L1Misses = 3, 4
	if r, err := m.runtimeAt(res, 1e-6); err == nil {
		t.Errorf("priced an L1 underflow: %.3g W dynamic", r.DynamicW)
	}
	res.Activity.L1Misses = 3
	if _, err := m.runtimeAt(res, 1e-6); err != nil {
		t.Errorf("misses == reads: %v", err)
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

// texGTX580 is the GTX580 with a texture cache, so that the scoreboard,
// L1, L2 and texture terms all have nonzero energy.
func texGTX580() *config.GPU {
	cfg := config.GTX580()
	cfg.TexCacheKB, cfg.TexLineB = 8, 32
	return cfg
}

// busyActivity is an activity with no events: the kernel's cycles and the
// busy counts only.
func busyActivity(cfg *config.GPU) sim.Activity {
	a := sim.Activity{Cycles: 1 << 20, GlobalSchedCycles: 1 << 19, DRAMBusyCycles: 1 << 20}
	for i := 0; i < cfg.NumCores(); i++ {
		a.CoreBusyCycles = append(a.CoreBusyCycles, 1<<19+uint64(i))
	}
	for i := 0; i < cfg.Clusters; i++ {
		a.ClusterBusyCycles = append(a.ClusterBusyCycles, 1<<19+uint64(i))
	}
	return a
}

// perEvent reports whether Activity field f counts events, as opposed to
// the kernel's cycles and the busy counts.
func perEvent(f reflect.StructField) bool {
	switch f.Name {
	case "Cycles", "GlobalSchedCycles", "DRAMBusyCycles":
		return false
	}
	return f.Type.Kind() == reflect.Uint64
}

// unpricedCounters are the Activity counters no power term reads: they
// count work another counter already prices (warp instructions by class,
// coalesced segments, conflict cycles, cache misses outside L1) or
// occupancy no energy is attached to.
var unpricedCounters = []string{
	"IssuedInstrs", "IntWarpInstrs", "FPWarpInstrs", "SFUWarpInstrs", "MemWarpInstrs", "CtrlWarpInstrs",
	"CoalescedReqs", "SMemConflicts", "ConstMisses", "TexMisses", "L2Misses",
	"ResidentWarpCycles", "BlocksLaunched", "WarpsLaunched", "ThreadsLaunched",
}

// priced is every dynamic number a report carries: each GPU and core
// item's DynamicW, then DRAMW.
func priced(t *testing.T, m *Model, a sim.Activity) []float64 {
	t.Helper()
	r, err := m.Evaluate(&sim.Result{Activity: a})
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, it := range append(r.GPU, r.Core...) {
		out = append(out, it.DynamicW)
	}
	return append(out, r.DRAMW)
}

// Every uint64 Activity counter is priced: growing it moves some item's
// dynamic power or the DRAM power, unless unpricedCounters names it, and
// growing a named one moves nothing.
func TestEveryCounterPricedOrNamed(t *testing.T) {
	cfg := texGTX580()
	m := mustModel(t, cfg)
	base := busyActivity(cfg)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		if perEvent(typ.Field(i)) {
			reflect.ValueOf(&base).Elem().Field(i).SetUint(1 << 12)
		}
	}
	base.L1Reads = 1 << 16 // room for more misses than the base's
	want := priced(t, m, base)
	for _, name := range unpricedCounters {
		if f, ok := typ.FieldByName(name); !ok || f.Type.Kind() != reflect.Uint64 {
			t.Errorf("unpricedCounters names %s, which is no uint64 Activity counter", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		a := base
		v := reflect.ValueOf(&a).Elem().Field(i)
		v.SetUint(v.Uint() + 1<<10)
		moved := !slices.Equal(priced(t, m, a), want)
		switch unpriced := slices.Contains(unpricedCounters, f.Name); {
		case unpriced && moved:
			t.Errorf("%s is listed in unpricedCounters, but growing it moves power", f.Name)
		case !unpriced && !moved:
			t.Errorf("growing %s moves no item's dynamic power nor DRAM power: price it or list it in unpricedCounters", f.Name)
		}
	}
}

// Two metamorphic checks over seeded random activities with the cycles and
// busy counts fixed: static power depends on the configuration alone, not
// on the activity or the kernel's duration; and dynamic power is additive
// over the per-event counters, so pricing a+b equals pricing a plus
// pricing b less pricing no events.
func TestPricingMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []*config.GPU{config.GT240(), texGTX580()} {
		m := mustModel(t, cfg)
		zero := busyActivity(cfg)
		typ := reflect.TypeOf(zero)
		random := func() sim.Activity {
			a := zero
			for i := 0; i < typ.NumField(); i++ {
				if perEvent(typ.Field(i)) {
					reflect.ValueOf(&a).Elem().Field(i).SetUint(uint64(rng.Intn(1 << 20)))
				}
			}
			if a.L1Misses > a.L1Reads {
				a.L1Misses, a.L1Reads = a.L1Reads, a.L1Misses
			}
			return a
		}
		report := func(a sim.Activity, T float64) *RuntimeReport {
			r, err := m.runtimeAt(&sim.Result{Activity: a}, T)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		T := float64(zero.Cycles) / cfg.CoreClockHz()
		static, none := m.Static(), report(zero, T)
		for trial := 0; trial < 50; trial++ {
			x, y := random(), random()
			xy := zero
			for i := 0; i < typ.NumField(); i++ {
				if perEvent(typ.Field(i)) {
					v := reflect.ValueOf(&xy).Elem().Field(i)
					v.SetUint(reflect.ValueOf(x).Field(i).Uint() + reflect.ValueOf(y).Field(i).Uint())
				}
			}

			rs := report(x, T*(0.01+100*rng.Float64()))
			if rs.StaticW != static.StaticW {
				t.Errorf("%s trial %d: StaticW %v, architectural %v", cfg.Name, trial, rs.StaticW, static.StaticW)
			}
			for i := range rs.GPU {
				if rs.GPU[i].StaticW != none.GPU[i].StaticW {
					t.Errorf("%s trial %d: %s StaticW %v, with no events %v", cfg.Name, trial, rs.GPU[i].Name, rs.GPU[i].StaticW, none.GPU[i].StaticW)
				}
			}
			for i := range rs.Core {
				if rs.Core[i].StaticW != none.Core[i].StaticW {
					t.Errorf("%s trial %d: core %s StaticW %v, with no events %v", cfg.Name, trial, rs.Core[i].Name, rs.Core[i].StaticW, none.Core[i].StaticW)
				}
			}

			rx, ry, rxy := report(x, T), report(y, T), report(xy, T)
			check := func(name string, sum, a, b, z float64) {
				if d := sum - (a + b - z); d > 1e-12*sum || -d > 1e-12*sum {
					t.Errorf("%s trial %d: %s priced %v for a+b, %v for a + b - none", cfg.Name, trial, name, sum, a+b-z)
				}
			}
			check("DynamicW", rxy.DynamicW, rx.DynamicW, ry.DynamicW, none.DynamicW)
			for i := range rxy.GPU {
				check(rxy.GPU[i].Name, rxy.GPU[i].DynamicW, rx.GPU[i].DynamicW, ry.GPU[i].DynamicW, none.GPU[i].DynamicW)
			}
			for i := range rxy.Core {
				check("core "+rxy.Core[i].Name, rxy.Core[i].DynamicW, rx.Core[i].DynamicW, ry.Core[i].DynamicW, none.Core[i].DynamicW)
			}
		}
	}
}
