package hw

import (
	"math"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/simcache"
)

// busyKernel builds an FP loop kernel for measurement tests.
func busyKernel(iter int) *kernel.Program {
	b := kernel.NewBuilder("busyfp", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.I2F(1, kernel.R(0))
	b.MovI(2, 0)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.FFma(1, kernel.R(1), kernel.F(1.0001), kernel.F(0.5))
	}
	b.IAdd(2, kernel.R(2), kernel.I(1))
	b.ISet(3, kernel.CmpLT, kernel.R(2), kernel.I(int32(iter)))
	b.When(3).Bra("loop", "exit")
	b.Label("exit")
	b.LdParam(4, 0)
	b.IShl(5, kernel.R(0), kernel.I(2))
	b.IAdd(4, kernel.R(4), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
	b.Exit()
	return b.MustBuild()
}

// testGT240 returns the GT240 preset (shared helper for rig tests).
func testGT240() *config.GPU { return config.GT240() }

// testBusyLaunch is busyLaunch under a name shared with rig_test.go.
func testBusyLaunch(blocks int) (*kernel.Launch, *kernel.GlobalMem) {
	return busyLaunch(blocks)
}

func busyLaunch(blocks int) (*kernel.Launch, *kernel.GlobalMem) {
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(256 * 4)
	return &kernel.Launch{
		Prog:   busyKernel(40),
		Grid:   kernel.Dim{X: blocks, Y: 1},
		Block:  kernel.Dim{X: 256, Y: 1},
		Params: []uint32{out},
	}, mem
}

// launchTruePower times a launch on the card's silicon, as MeasureSequence
// does for an item without a timing result, and prices it.
func launchTruePower(c *Card, l *kernel.Launch, mem *kernel.GlobalMem) (powerW, seconds float64, err error) {
	tr, err := simcache.Run(c.perf, l, mem, nil)
	if err != nil {
		return 0, 0, err
	}
	return c.kernelTruePower(tr.Perf)
}

func TestCardDeterministic(t *testing.T) {
	c1, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	if c1.TrueStaticW() != c2.TrueStaticW() {
		t.Error("same card model must have identical silicon")
	}
	l1, m1 := busyLaunch(12)
	l2, m2 := busyLaunch(12)
	a, err := c1.MeasureKernel(l1, m1, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.MeasureKernel(l2, m2, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPowerW != b.AvgPowerW {
		t.Errorf("measurements differ across identical cards: %v vs %v", a.AvgPowerW, b.AvgPowerW)
	}
}

func TestTrueStaticNearPaperValues(t *testing.T) {
	// Paper Table IV "Real": GT240 17.6 W, GTX580 80 W.
	gt, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	if s := gt.TrueStaticW(); math.Abs(s-17.6)/17.6 > 0.05 {
		t.Errorf("GT240 true static %.2f, want ~17.6", s)
	}
	gtx, err := NewCard(config.GTX580())
	if err != nil {
		t.Fatal(err)
	}
	if s := gtx.TrueStaticW(); math.Abs(s-80)/80 > 0.06 {
		t.Errorf("GTX580 true static %.2f, want ~80", s)
	}
}

func TestSiliconBelowNominalModel(t *testing.T) {
	// The perturbation biases truth below the analytic model, reproducing
	// the paper's systematic slight overestimation.
	cfg := config.GT240()
	c, err := NewCard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.truth.Power.DynScaleFactor >= cfg.Power.DynScaleFactor {
		t.Error("truth dynamic scale must sit below nominal")
	}
	if c.truth.Power.UndiffCoreStaticW >= cfg.Power.UndiffCoreStaticW {
		t.Error("truth static must sit below nominal")
	}
}

func TestIdleStates(t *testing.T) {
	c, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	prePost := c.PrePostKernelPowerW()
	idle := c.IdlePowerW()
	static := c.TrueStaticW()
	// The paper: GT240 draws ~19.5 W around kernels, ~15 W deep idle, and
	// about 90 % of the pre/post state is static power.
	if math.Abs(static/prePost-0.9) > 0.01 {
		t.Errorf("static/prePost = %.3f, want 0.9", static/prePost)
	}
	if idle >= prePost {
		t.Error("deep idle must draw less than the pre/post-kernel state")
	}
	if prePost < 17 || prePost > 22 {
		t.Errorf("GT240 pre/post power %.1f outside the ~19.5 W regime", prePost)
	}
	if idle < 13 || idle > 17 {
		t.Errorf("GT240 deep idle %.1f outside the ~15 W regime", idle)
	}
}

func TestMeasureKernelAboveIdle(t *testing.T) {
	c, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	l, mem := busyLaunch(24)
	m, err := c.MeasureKernel(l, mem, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgPowerW <= c.PrePostKernelPowerW() {
		t.Errorf("kernel power %.1f not above idle %.1f", m.AvgPowerW, c.PrePostKernelPowerW())
	}
	if m.AvgPowerW > 80 {
		t.Errorf("GT240 measured %.1f W — beyond the card's class", m.AvgPowerW)
	}
	if m.EnergyJ <= 0 || m.WindowS <= 0 || m.TrueKernelSeconds <= 0 {
		t.Error("measurement bookkeeping incomplete")
	}
	if math.Abs(m.EnergyJ-m.AvgPowerW*m.WindowS) > 1e-9 {
		t.Error("energy != power x window")
	}
}

func TestMeasurementAccuracyWithinChainSpec(t *testing.T) {
	// With a long window the measured power must sit within the chain's
	// +/-3.2 % error budget (plus a sliver for the capacitor edge).
	c, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	l, mem := busyLaunch(24)
	trueW, oneT, err := launchTruePower(c, l, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh memory: launchTruePower mutated the old image.
	l2, mem2 := busyLaunch(24)
	m, err := c.MeasureKernel(l2, mem2, nil, RepeatsForWindow(oneT, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(m.AvgPowerW-trueW) / trueW
	if relErr > c.chain.worstCaseErrorFraction()+0.01 {
		t.Errorf("measured %.2f vs true %.2f: error %.1f%% beyond chain spec", m.AvgPowerW, trueW, 100*relErr)
	}
}

func TestShortKernelArtifact(t *testing.T) {
	// A single short execution is smeared by the bulk capacitance: measured
	// power must be biased low versus a long repeated window, and flagged.
	c, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	l1, mem1 := busyLaunch(12)
	short, err := c.MeasureKernel(l1, mem1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2, mem2 := busyLaunch(12)
	long, err := c.MeasureKernel(l2, mem2, nil, RepeatsForWindow(short.TrueKernelSeconds, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if !short.ShortWindow {
		t.Error("sub-50 ms window must be flagged")
	}
	if long.ShortWindow {
		t.Error("quarter-second window must not be flagged")
	}
	if short.AvgPowerW >= long.AvgPowerW {
		t.Errorf("capacitor smearing should bias short measurements low: %.2f vs %.2f",
			short.AvgPowerW, long.AvgPowerW)
	}
}

func TestClockScaling(t *testing.T) {
	c, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetClockScale(1.2); err == nil {
		t.Error("overclocking beyond nominal must be rejected")
	}
	if err := c.SetClockScale(0.3); err == nil {
		t.Error("scale below 0.5 must be rejected")
	}
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.49, 1.01} {
		if err := c.SetClockScale(s); err == nil {
			t.Errorf("scale %v must be rejected", s)
		}
	}
	if c.ClockScale() != 1 {
		t.Fatalf("rejected scales changed the clock scale to %v", c.ClockScale())
	}
	l1, mem1 := busyLaunch(24)
	full, _, err := launchTruePower(c, l1, mem1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetClockScale(0.8); err != nil {
		t.Fatal(err)
	}
	l2, mem2 := busyLaunch(24)
	slow, slowT, err := launchTruePower(c, l2, mem2)
	if err != nil {
		t.Fatal(err)
	}
	if slow >= full {
		t.Errorf("downclocked power %.2f not below nominal %.2f", slow, full)
	}
	// Linear extrapolation to 0 Hz recovers the frequency-independent board
	// power (GPU static + DRAM background) on noiseless true powers
	// (Section IV-B methodology).
	static := (slow*1.0 - full*0.8) / 0.2
	want := c.TrueBoardStaticW()
	if math.Abs(static-want)/want > 0.02 {
		t.Errorf("extrapolated static %.2f vs board static %.2f", static, want)
	}
	_ = slowT
}

func TestMeasureSequenceTrace(t *testing.T) {
	c, err := NewCard(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	var items []SeqItem
	for i := 1; i <= 3; i++ {
		l, mem := busyLaunch(i * 4)
		items = append(items, SeqItem{Launch: l, Mem: mem, Repeats: 400, GapS: 0.03})
	}
	tr, ms, err := c.MeasureSequence(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || len(tr.Marks) != 3 {
		t.Fatalf("want 3 measurements, got %d", len(ms))
	}
	if len(tr.Samples) == 0 {
		t.Fatal("empty trace")
	}
	if len(tr.Samples) != cap(tr.Samples) {
		t.Errorf("trace sized %d for %d samples", cap(tr.Samples), len(tr.Samples))
	}
	// More blocks -> more clusters active -> more power.
	if !(ms[0].AvgPowerW < ms[1].AvgPowerW && ms[1].AvgPowerW < ms[2].AvgPowerW) {
		t.Errorf("power should rise with block count: %.2f %.2f %.2f",
			ms[0].AvgPowerW, ms[1].AvgPowerW, ms[2].AvgPowerW)
	}
	// Trace timestamps must be ordered and inside the waveform.
	for i, mk := range tr.Marks {
		if mk[0] >= mk[1] {
			t.Errorf("mark %d: empty window", i)
		}
		if mk[1] > tr.TimeOf(len(tr.Samples)) {
			t.Errorf("mark %d beyond trace end", i)
		}
	}
	if _, _, err := c.MeasureSequence(nil); err == nil {
		t.Error("empty sequence must error")
	}
}

// TestSiliconSharesTimingKey pins the invariant that lets a sweep hand the
// card its group's timing results: the silicon perturbation is power-only.
func TestSiliconSharesTimingKey(t *testing.T) {
	for name, p := range config.Presets() {
		c, err := NewCard(p())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.TimingKey() != p().TimingKey() {
			t.Errorf("%s: silicon timing key differs from the nominal one", name)
		}
	}
}

func TestRealAreaConstants(t *testing.T) {
	gt, _ := NewCard(config.GT240())
	if gt.RealAreaMM2() != 133 {
		t.Errorf("GT240 die %.0f, want 133 (Table IV)", gt.RealAreaMM2())
	}
	gtx, _ := NewCard(config.GTX580())
	if gtx.RealAreaMM2() != 520 {
		t.Errorf("GTX580 die %.0f, want 520 (Table IV)", gtx.RealAreaMM2())
	}
	custom := config.GT240()
	custom.Name = "CUSTOM99"
	c, err := NewCard(custom)
	if err != nil {
		t.Fatal(err)
	}
	if c.RealAreaMM2() <= 0 {
		t.Error("unknown cards need a plausible die estimate")
	}
}

func TestRepeatsForWindow(t *testing.T) {
	if RepeatsForWindow(0.001, 0.1) != 100 {
		t.Error("1 ms kernel needs 100 repeats for 100 ms")
	}
	if RepeatsForWindow(1, 0.1) != 1 {
		t.Error("long kernels need one execution")
	}
	if RepeatsForWindow(0, 0.1) != 1 {
		t.Error("degenerate duration must yield 1")
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.uniform(0.8, 1.2)
		if v < 0.8 || v >= 1.2 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
	if seedFromString("GT240") == seedFromString("GTX580") {
		t.Error("seeds must differ per name")
	}
}
