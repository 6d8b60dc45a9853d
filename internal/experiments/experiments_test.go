package experiments

import (
	"math"
	"testing"

	"gpusimpow/internal/sweep"
)

// reduceRun plans and runs spec under f and folds the run's wire records
// through reduce — the path sweep.BuildReport takes, stopped at the typed
// result so the paper-shape checks can read its fields.
func reduceRun[T any](t *testing.T, spec *sweep.Spec, f sweep.Filter, reduce func([]*sweep.CellRecord) (T, error)) T {
	t.Helper()
	r, err := reduce(runRecords(t, spec, f))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fig6For runs one Figure 6 sub-figure.
func fig6For(t *testing.T, gpu string) *Fig6Result {
	t.Helper()
	return reduceRun(t, Fig6Spec(), sweep.Filter{"gpu": {gpu}}, func(recs []*sweep.CellRecord) (*Fig6Result, error) {
		return fig6Reduce(gpu, recs)
	})
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 9 {
		t.Fatalf("Table II has %d rows, want 9", len(rows))
	}
	want := map[string][2]string{
		"#Cores":            {"12", "16"},
		"#Threads per core": {"768", "1536"},
		"#FUs per core":     {"8", "32"},
		"Scoreboard":        {"no", "yes"},
		"L2-$ size":         {"no", "768KByte"},
		"Process node":      {"40nm", "40nm"},
	}
	for _, r := range rows {
		if w, ok := want[r.Feature]; ok {
			if r.GT240 != w[0] || r.GTX580 != w[1] {
				t.Errorf("%s: got %s/%s, want %s/%s", r.Feature, r.GT240, r.GTX580, w[0], w[1])
			}
		}
	}
}

func TestTable4(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	// Paper Table IV: GT240 17.9/17.6 W and 105/133 mm^2;
	// GTX580 81.5/80 W and 306/520 mm^2. Check the reproduction bands.
	gt := rows[0]
	if gt.GPU != "GT240" {
		t.Fatalf("row order: %s", gt.GPU)
	}
	if math.Abs(gt.SimStaticW-17.9) > 1.0 {
		t.Errorf("GT240 sim static %.2f, want ~17.9", gt.SimStaticW)
	}
	if math.Abs(gt.RealStaticW-17.6) > 1.5 {
		t.Errorf("GT240 real static %.2f, want ~17.6", gt.RealStaticW)
	}
	if gt.SimAreaMM2 >= gt.RealAreaMM2 {
		t.Error("modeled area should undershoot the die (undifferentiated logic)")
	}
	gx := rows[1]
	if math.Abs(gx.SimStaticW-81.5) > 4 {
		t.Errorf("GTX580 sim static %.2f, want ~81.5", gx.SimStaticW)
	}
	if math.Abs(gx.RealStaticW-80) > 8 {
		t.Errorf("GTX580 real static %.2f, want ~80", gx.RealStaticW)
	}
	if gx.SimAreaMM2 >= gx.RealAreaMM2 {
		t.Error("GTX580 modeled area should undershoot the 520 mm^2 die")
	}
}

func TestTable5Shape(t *testing.T) {
	rep, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Power
	// Paper Table V shapes: cores ~82 % of GPU power; execution units are
	// the largest differentiated core consumer; register file second;
	// undifferentiated core the largest core static item.
	var cores, noc, mc, pcie float64
	for _, it := range p.GPU {
		switch it.Name {
		case "Cores":
			cores = it.Total()
		case "NoC":
			noc = it.Total()
		case "Memory Controller":
			mc = it.Total()
		case "PCIe Controller":
			pcie = it.Total()
		}
	}
	total := p.TotalW
	if f := cores / total; f < 0.70 || f > 0.95 {
		t.Errorf("cores fraction %.2f outside [0.70, 0.95] (paper: 0.82)", f)
	}
	if noc <= 0 || mc <= 0 || pcie <= 0 {
		t.Error("uncore components must be non-zero")
	}
	var exe, rf, wcu, undiff, ldst float64
	for _, it := range p.Core {
		switch it.Name {
		case "Execution Units":
			exe = it.DynamicW
		case "Register File":
			rf = it.DynamicW
		case "WCU":
			wcu = it.DynamicW
		case "Undiff. Core":
			undiff = it.StaticW
		case "LDSTU":
			ldst = it.Total()
		}
	}
	if !(exe > rf && rf > wcu) {
		t.Errorf("core dynamic ordering EXE(%.3f) > RF(%.3f) > WCU(%.3f) violated", exe, rf, wcu)
	}
	if undiff <= 0 || ldst <= 0 {
		t.Error("undiff/LDSTU must contribute")
	}
	// DRAM reported separately (paper: 4.3 W excluded from the table).
	if p.DRAMW <= 0 {
		t.Error("DRAM power missing")
	}
	// Static close to Table IV's 17.9 W.
	if math.Abs(p.StaticW-17.9) > 1 {
		t.Errorf("static %.2f, want ~17.9", p.StaticW)
	}
}

func TestFig4Staircase(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PowerPerBlocks) != 12 {
		t.Fatalf("want 12 block counts, got %d", len(r.PowerPerBlocks))
	}
	// Power must increase monotonically with block count.
	for i := 1; i < len(r.PowerPerBlocks); i++ {
		if r.PowerPerBlocks[i] <= r.PowerPerBlocks[i-1] {
			t.Errorf("power not increasing at %d blocks: %.2f <= %.2f",
				i+1, r.PowerPerBlocks[i], r.PowerPerBlocks[i-1])
		}
	}
	// The paper's staircase: the first block costs the most (global
	// scheduler ~3.34 W + cluster + core), cluster steps (blocks 2..4)
	// exceed core-only steps (blocks 5..12).
	if r.FirstBlockDeltaW <= r.ClusterStepW {
		t.Errorf("first block delta %.2f should exceed cluster step %.2f", r.FirstBlockDeltaW, r.ClusterStepW)
	}
	if r.ClusterStepW <= r.CoreStepW {
		t.Errorf("cluster step %.2f should exceed core step %.2f", r.ClusterStepW, r.CoreStepW)
	}
	if r.ClusterStepW-r.CoreStepW < 0.3 {
		t.Errorf("cluster activation premium %.2f W too small (paper: 0.692 W)", r.ClusterStepW-r.CoreStepW)
	}
	if len(r.Trace.Samples) == 0 {
		t.Error("waveform missing")
	}
}

func TestEnergyPerOp(t *testing.T) {
	r := reduceRun(t, EnergyPerOpSpec(), nil, energyPerOpReduce)
	// The estimates must land near the configured anchors (the card's true
	// silicon deviates by up to ~12 % plus measurement error) and preserve
	// the paper's headline relation FP > INT with INT ~40 pJ, FP ~75 pJ.
	if math.Abs(r.IntOpPJ-r.NominalIntPJ)/r.NominalIntPJ > 0.30 {
		t.Errorf("INT estimate %.1f pJ too far from %.1f pJ", r.IntOpPJ, r.NominalIntPJ)
	}
	if math.Abs(r.FPOpPJ-r.NominalFPPJ)/r.NominalFPPJ > 0.30 {
		t.Errorf("FP estimate %.1f pJ too far from %.1f pJ", r.FPOpPJ, r.NominalFPPJ)
	}
	if r.FPOpPJ <= r.IntOpPJ {
		t.Errorf("FP ops (%.1f pJ) must cost more than INT ops (%.1f pJ)", r.FPOpPJ, r.IntOpPJ)
	}
}

func TestStaticExtrapolation(t *testing.T) {
	r, err := StaticExtrapolation()
	if err != nil {
		t.Fatal(err)
	}
	if r.ErrPct > 6 {
		t.Errorf("extrapolation error %.1f%% too large", r.ErrPct)
	}
	if r.EstimatedStaticW <= 0 || r.TrueStaticW <= 0 {
		t.Error("degenerate result")
	}
}

func TestFig6GT240(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation sweep in -short mode")
	}
	checkFig6(t, fig6For(t, "GT240"), 19)
}

func TestFig6GTX580(t *testing.T) {
	if testing.Short() {
		t.Skip("full validation sweep in -short mode")
	}
	checkFig6(t, fig6For(t, "GTX580"), 19)
}

func checkFig6(t *testing.T, r *Fig6Result, wantBars int) {
	t.Helper()
	if len(r.Bars) != wantBars {
		t.Fatalf("%s: %d bars, want %d", r.GPU, len(r.Bars), wantBars)
	}
	// Paper: 11.7 % (GT240) / 10.8 % (GTX580) average relative error. The
	// virtual silicon differs from the real cards, so accept the band the
	// methodology should land in.
	if r.AvgRelErrPct < 2 || r.AvgRelErrPct > 22 {
		t.Errorf("%s: average relative error %.1f%% outside the expected [2, 22]%% band", r.GPU, r.AvgRelErrPct)
	}
	// The simulator should overestimate for most kernels.
	if r.OverestimatedFraction < 0.6 {
		t.Errorf("%s: only %.0f%% of kernels overestimated; paper reports nearly all",
			r.GPU, 100*r.OverestimatedFraction)
	}
	// Dynamic-only error is larger than total error (static dilutes it).
	if r.DynAvgRelErrPct <= r.AvgRelErrPct {
		t.Errorf("%s: dynamic error %.1f%% should exceed total error %.1f%%",
			r.GPU, r.DynAvgRelErrPct, r.AvgRelErrPct)
	}
	for _, b := range r.Bars {
		if b.SimTotalW() <= 0 || b.MeasTotalW() <= 0 {
			t.Errorf("%s/%s: non-positive power", r.GPU, b.Kernel)
		}
		if b.SimStaticW <= 0 || b.MeasStaticW <= 0 {
			t.Errorf("%s/%s: missing static split", r.GPU, b.Kernel)
		}
	}
	if r.GPU == "GT240" {
		// The paper's outlier: the short in-place mergeSort3 measurement.
		var ms3 *Fig6Bar
		for i := range r.Bars {
			if r.Bars[i].Kernel == "mergeSort3" {
				ms3 = &r.Bars[i]
			}
		}
		if ms3 == nil {
			t.Fatal("mergeSort3 bar missing")
		}
		if !ms3.ShortWindow {
			t.Error("mergeSort3 should be flagged as a short-window measurement")
		}
		if ms3.RelErrPct < r.AvgRelErrPct {
			t.Error("mergeSort3 should show an above-average error (measurement artifact)")
		}
	}
}

func TestAblations(t *testing.T) {
	sb := reduceRun(t, AblationScoreboardSpec(), nil, ablationReduce)
	if sb[1].Cycles >= sb[0].Cycles {
		t.Error("scoreboard should cut cycles")
	}
	if sb[1].EnergyMJ >= sb[0].EnergyMJ {
		t.Error("finishing faster at similar power should cut energy")
	}

	l2 := reduceRun(t, AblationL2Spec(), nil, ablationReduce)
	if l2[1].Cycles <= l2[0].Cycles {
		t.Error("removing the L2 should cost cycles on a memory-bound kernel")
	}

	nodes := reduceRun(t, AblationProcessNodeSpec(), nil, ablationReduce)
	if len(nodes) != 5 {
		t.Fatalf("want 5 node variants, got %d", len(nodes))
	}
	// Smaller nodes leak relatively more per area but the calibrated undiff
	// dominates; at least dynamic energy per op must shrink with the node.
	first, last := nodes[0], nodes[len(nodes)-1]
	if last.DynamicW >= first.DynamicW {
		t.Errorf("28 nm dynamic %.2f should undercut 65 nm dynamic %.2f", last.DynamicW, first.DynamicW)
	}

	cores := reduceRun(t, AblationCoreCountSpec(), nil, ablationReduce)
	if cores[len(cores)-1].Cycles >= cores[0].Cycles {
		t.Error("more cores should finish the fixed-size-per-core workload... faster overall")
	}
}

func TestAblationScheduler(t *testing.T) {
	rows := reduceRun(t, AblationSchedulerSpec(), nil, ablationReduce)
	if len(rows) != 3 {
		t.Fatalf("want 3 policies, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 || r.TotalW <= 0 {
			t.Errorf("%s: degenerate result", r.Variant)
		}
	}
	// The policies must not all behave identically.
	if rows[0].Cycles == rows[1].Cycles && rows[0].Cycles == rows[2].Cycles &&
		rows[0].DynamicW == rows[1].DynamicW && rows[0].DynamicW == rows[2].DynamicW {
		t.Error("scheduler policies indistinguishable in both timing and power")
	}
}

func TestDVFS(t *testing.T) {
	r := reduceRun(t, DVFSSpec(), nil, dvfsReduce)
	if len(r.Points) != 6 {
		t.Fatalf("want 6 operating points, got %d", len(r.Points))
	}
	for i := 1; i < len(r.Points); i++ {
		// Higher clock: more power, less time.
		if r.Points[i].PowerW <= r.Points[i-1].PowerW {
			t.Errorf("power not increasing with clock at scale %.1f", r.Points[i].ClockScale)
		}
		if r.Points[i].KernelSeconds >= r.Points[i-1].KernelSeconds {
			t.Errorf("runtime not decreasing with clock at scale %.1f", r.Points[i].ClockScale)
		}
	}
	// With ~18 W of leakage, race-to-idle wins: the energy-optimal point
	// sits at the highest clock.
	if r.MinEnergyScale < 0.9 {
		t.Errorf("min-energy scale %.1f; static-dominated cards should race to idle", r.MinEnergyScale)
	}
}
