// Package experiments regenerates every table and figure of the paper's
// evaluation: Table II (configurations), Table IV (static power and area),
// Table V (blackscholes power profile), Figure 4 (cluster power staircase),
// Figure 6 (simulated vs. measured power over all benchmark kernels),
// the Section III-D energy-per-operation microbenchmark, the Section IV-B
// static-power extrapolation, and a set of design-choice ablations.
package experiments

import (
	"fmt"
	"strings"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/hw"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/power"
	"gpusimpow/internal/sweep"
)

// measureWindowS is the default measurement window the harness stretches
// repeatable kernels to (comfortably beyond the 50 ms reliability limit).
const measureWindowS = 0.12

// ---------------------------------------------------------------------------
// E1: Table II — configuration summary.
// ---------------------------------------------------------------------------

// reduceTable2 builds Table II (pure configuration data; no records).
func reduceTable2(_ []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	a, b := config.GT240(), config.GTX580()
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	l2 := func(g *config.GPU) string {
		if g.L2KB == 0 {
			return "no"
		}
		return fmt.Sprintf("%dKByte", g.L2KB)
	}
	sec := sweep.Section{
		Title: "Table II: key features of the evaluated GPU architectures",
		Columns: []sweep.Column{
			{Label: "Feature", Format: "%-20s"},
			{Label: "GT240", Format: "%12s"},
			{Label: "GTX580", Format: "%12s"},
		},
		Header: true,
	}
	for _, r := range [][3]string{
		{"#Cores", fmt.Sprint(a.NumCores()), fmt.Sprint(b.NumCores())},
		{"#Threads per core", fmt.Sprint(a.MaxThreadsPerCore), fmt.Sprint(b.MaxThreadsPerCore)},
		{"#FUs per core", fmt.Sprint(a.FUsPerCore), fmt.Sprint(b.FUsPerCore)},
		{"Uncore clock", fmt.Sprintf("%.0f MHz", a.UncoreClockMHz), fmt.Sprintf("%.0f MHz", b.UncoreClockMHz)},
		{"Shader-to-Uncore", fmt.Sprintf("%.2fx", a.UncoreRatio()), fmt.Sprintf("%.0fx", b.UncoreRatio())},
		{"#Warps in-flight", fmt.Sprint(a.MaxWarpsPerCore), fmt.Sprint(b.MaxWarpsPerCore)},
		{"Scoreboard", yn(a.HasScoreboard), yn(b.HasScoreboard)},
		{"L2-$ size", l2(a), l2(b)},
		{"Process node", fmt.Sprintf("%.0fnm", a.ProcessNM), fmt.Sprintf("%.0fnm", b.ProcessNM)},
	} {
		sec.Rows = append(sec.Rows, []sweep.Datum{sweep.Str(r[0]), sweep.Str(r[1]), sweep.Str(r[2])})
	}
	return &sweep.Report{Scenario: "table2", Sections: []sweep.Section{sec}}, nil
}

// ---------------------------------------------------------------------------
// E2: Table IV — static power and area, simulated vs. "real" (virtual card).
// ---------------------------------------------------------------------------

// reduceTable4 builds Table IV: per GPU, the model's static power and area
// against the card's static power (estimated by measuredStaticW) and die
// size.
func reduceTable4(_ []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	sec := sweep.Section{
		Title: "Table IV: static power and area (simulated vs. measured/datasheet)",
		Columns: []sweep.Column{
			{Label: "GPU", Format: "%-8s"},
			{Label: "", Format: "%-10s"},
			{Label: "Static [W]", Unit: "W", Format: "%12.1f", Head: "%12s"},
			{Label: "Area [mm2]", Unit: "mm2", Format: "%12.1f", Head: "%12s"},
		},
		Header: true,
	}
	for _, gpu := range []string{"GT240", "GTX580"} {
		ev, err := core.NewPowerEvaluator(config.Presets()[gpu]())
		if err != nil {
			return nil, err
		}
		realStatic, card, err := measuredStaticW(gpu)
		if err != nil {
			return nil, err
		}
		s := ev.Static()
		sec.Rows = append(sec.Rows,
			[]sweep.Datum{sweep.Str(gpu), sweep.Str("Simulated"), sweep.Num(s.StaticW), sweep.Num(s.AreaMM2)},
			[]sweep.Datum{sweep.Str(""), sweep.Str("Real"), sweep.Num(realStatic), sweep.Num(card.RealAreaMM2())},
		)
	}
	return &sweep.Report{Scenario: "table4", Sections: []sweep.Section{sec}}, nil
}

// measuredStaticW estimates a card's GPU-only static power with the
// methodology the paper could apply to it, and returns the card it
// built: frequency extrapolation on the GT240, and on the GTX580 (whose
// Linux driver "does not yet support changing the clock speed") the
// GT240's static-to-idle ratio applied to the GTX580's idle power. Every
// call builds fresh cards, so each caller sees the same noise streams.
func measuredStaticW(gpu string) (float64, *hw.Card, error) {
	mk, ok := config.Presets()[gpu]
	if !ok {
		return 0, nil, fmt.Errorf("experiments: unknown GPU %q", gpu)
	}
	refCfg := config.GT240()
	ref, err := hw.NewCard(refCfg)
	if err != nil {
		return 0, nil, err
	}
	refStatic, err := estimateStaticByFrequency(ref, refCfg)
	if err != nil {
		return 0, nil, err
	}
	if gpu == "GT240" {
		return refStatic, ref, nil
	}
	card, err := hw.NewCard(mk())
	if err != nil {
		return 0, nil, err
	}
	ratio := refStatic / (ref.PrePostKernelPowerW() + ref.DRAMIdleW())
	return (card.PrePostKernelPowerW() + card.DRAMIdleW()) * ratio, card, nil
}

// estimateStaticByFrequency implements the Section IV-B methodology on a
// virtual card: measure the DVFS study's compute-bound kernel, built for
// the card's configuration cfg, at the stock clock and at 20 % lower,
// then extrapolate linearly to 0 Hz, where only static power remains. The
// result includes the DRAM background (the rig measures the whole board);
// the GPU-only static is obtained by subtracting the card's DRAM idle power.
// Cycle counts are clock-invariant (the card scales clocks analytically), so
// the two operating points — and every later caller of this estimator in
// the same process — share a single cached timing simulation.
func estimateStaticByFrequency(card *hw.Card, cfg *config.GPU) (float64, error) {
	measure := func(scale float64) (float64, error) {
		if err := card.SetClockScale(scale); err != nil {
			return 0, err
		}
		inst, err := fpBusyWorkload.Build(cfg)
		if err != nil {
			return 0, err
		}
		u := &inst.Units[0]
		_, ms, err := card.MeasureSequence([]hw.SeqItem{{
			Launch: u.Launch, Mem: inst.Mem, CMem: u.CMem, MinWindowS: u.MinWindowS,
		}})
		if err != nil {
			return 0, err
		}
		return ms[0].AvgPowerW, nil
	}
	p100, err := measure(1.0)
	if err != nil {
		return 0, err
	}
	p80, err := measure(0.8)
	if err != nil {
		return 0, err
	}
	if err := card.SetClockScale(1.0); err != nil {
		return 0, err
	}
	boardStatic := (p80*1.0 - p100*0.8) / 0.2
	return boardStatic - card.DRAMIdleW(), nil
}

// busyFPBody emits `unroll` FFMA operations per loop iteration for `iters`
// iterations, then stores the result.
func busyFPKernel(blocks, threads, iters int) (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder("fpBusy", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.I2F(1, kernel.R(0))
	b.MovI(2, 0)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.FFma(1, kernel.R(1), kernel.F(1.0001), kernel.F(0.5))
	}
	b.IAdd(2, kernel.R(2), kernel.I(1))
	b.ISet(3, kernel.CmpLT, kernel.R(2), kernel.I(int32(iters)))
	b.When(3).Bra("loop", "exit")
	b.Label("exit")
	b.LdParam(4, 0)
	b.IShl(5, kernel.R(0), kernel.I(2))
	b.IAdd(4, kernel.R(4), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(threads * 4)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: blocks, Y: 1},
		Block:  kernel.Dim{X: threads, Y: 1},
		Params: []uint32{out},
	}, mem
}

// ---------------------------------------------------------------------------
// E3: Table V — blackscholes power profile on GT240.
// ---------------------------------------------------------------------------

// reduceTable5 builds Table V: the blackscholes power profile in the
// paper's hierarchical shape (chip level, then one core, then DRAM). The
// timing stage is shared with Fig. 6 through the simulation-result cache
// (same GPU, same kernel, same inputs); the verification step still
// checks the functional output, which a cache hit replays from the stored
// final image. The profile itself is KernelProfile, the same sections
// cmd/gpusimpow prints for every launch.
func reduceTable5(_ []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	simr, err := core.New(config.GT240())
	if err != nil {
		return nil, err
	}
	inst, err := bench.BlackScholes()
	if err != nil {
		return nil, err
	}
	r := inst.Runs[0]
	tr, err := simr.Simulate(r.Launch, inst.Mem, r.CMem)
	if err != nil {
		return nil, err
	}
	if err := inst.Verify(); err != nil {
		return nil, fmt.Errorf("experiments: blackscholes failed verification: %w", err)
	}
	p, err := simr.EvaluatePower(tr)
	if err != nil {
		return nil, err
	}
	secs := KernelProfile(tr.Kernel, p)
	secs[0].Title = "Table V: blackscholes power breakdown on GT240"
	return &sweep.Report{Scenario: "table5", Sections: secs}, nil
}

// KernelProfile lays out one kernel's hierarchical power profile in the
// shape of the paper's Table V: a profile line, the GPU-level components,
// one core's components, then external DRAM.
func KernelProfile(kernel string, p *power.RuntimeReport) []sweep.Section {
	gpuSec := sweep.Section{
		Columns: []sweep.Column{
			{Label: "GPU", Format: "%-22s"},
			{Label: "Static [W]", Unit: "W", Format: "%10.3f", Head: "%10s"},
			{Label: "Dynamic [W]", Unit: "W", Format: "%11.3f", Head: "%11s"},
			{Label: "Percent", Unit: "%", Format: "%7.1f%%", Head: "%8s"},
		},
		Header: true,
		Rows: [][]sweep.Datum{
			{sweep.Str("Overall"), sweep.Num(p.StaticW), sweep.Num(p.DynamicW), sweep.Num(100.0)},
		},
	}
	for _, it := range p.GPU {
		gpuSec.Rows = append(gpuSec.Rows, []sweep.Datum{
			sweep.Str(it.Name), sweep.Num(it.StaticW), sweep.Num(it.DynamicW), sweep.Num(100 * it.Total() / p.TotalW),
		})
	}
	var coreTotal float64
	for _, it := range p.Core {
		coreTotal += it.Total()
	}
	coreSec := sweep.Section{
		Columns: []sweep.Column{
			{Label: "Core", Format: "%-22s"},
			{Label: "Static [W]", Unit: "W", Format: "%10.4f", Head: "%10s"},
			{Label: "Dynamic [W]", Unit: "W", Format: "%11.4f", Head: "%11s"},
			{Label: "Percent", Unit: "%", Format: "%7.1f%%", Head: "%8s"},
		},
		Header: true,
	}
	for _, it := range p.Core {
		coreSec.Rows = append(coreSec.Rows, []sweep.Datum{
			sweep.Str(it.Name), sweep.Num(it.StaticW), sweep.Num(it.DynamicW), sweep.Num(100 * it.Total() / coreTotal),
		})
	}
	return []sweep.Section{
		{Notes: []sweep.Note{sweep.Notef("Power profile: %s on %s (runtime %.3g s)",
			sweep.Str(kernel), sweep.Str(p.GPUName), sweep.Num(p.Seconds))}},
		gpuSec,
		coreSec,
		{
			Notes: []sweep.Note{sweep.Notef(
				"External DRAM: %.3f W (background %.2f, activate %.2f, r/w %.2f, term %.2f, refresh %.2f)",
				sweep.Num(p.DRAMW), sweep.Num(p.DRAM.Background), sweep.Num(p.DRAM.Activate),
				sweep.Num(p.DRAM.ReadWrite), sweep.Num(p.DRAM.Termination), sweep.Num(p.DRAM.Refresh))},
		},
	}
}

// ---------------------------------------------------------------------------
// E4: Figure 4 — cluster power staircase.
// ---------------------------------------------------------------------------

// reduceFig4 runs the same compute-bound kernel 12 times with 1..12 thread
// blocks on the virtual GT240, reproducing the staircase of the paper's
// Figure 4: the first block pays for the global scheduler, blocks 2..4
// activate new clusters (larger steps), blocks 5..12 only add cores
// (smaller steps).
func reduceFig4(_ []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	cfg := config.GT240()
	card, err := hw.NewCard(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.NumCores()
	items := make([]hw.SeqItem, n)
	for i := 0; i < n; i++ {
		l, mem := busyFPKernel(i+1, 256, 60)
		items[i] = hw.SeqItem{Launch: l, Mem: mem, MinWindowS: measureWindowS, GapS: 0.03}
	}
	_, ms, err := card.MeasureSequence(items)
	if err != nil {
		return nil, err
	}
	idleW := card.PrePostKernelPowerW() + card.DRAMIdleW()
	maxP := ms[n-1].AvgPowerW
	bars := sweep.Section{
		Columns: []sweep.Column{
			{Label: "blocks", Format: "%2d block(s):"},
			{Label: "power", Unit: "W", Format: "%6.2f W "},
			{Label: "bar", Format: "|%s"},
		},
	}
	for i, m := range ms {
		bar := strings.Repeat("#", int(40*(m.AvgPowerW-idleW)/(maxP-idleW)))
		bars.Rows = append(bars.Rows, []sweep.Datum{sweep.Uint(uint64(i + 1)), sweep.Num(m.AvgPowerW), sweep.Str(bar)})
	}
	// The mean increment while new clusters activate (blocks
	// 2..Clusters), then once all clusters are active (up to one block
	// per core).
	cl := cfg.Clusters
	var clusterStep, coreStep float64
	for i := 1; i < cl; i++ {
		clusterStep += ms[i].AvgPowerW - ms[i-1].AvgPowerW
	}
	clusterStep /= float64(cl - 1)
	for i := cl; i < n; i++ {
		coreStep += ms[i].AvgPowerW - ms[i-1].AvgPowerW
	}
	coreStep /= float64(n - cl)
	bars.Notes = []sweep.Note{
		sweep.Notef("first block delta: %.2f W (global scheduler + cluster + core)", sweep.Num(ms[0].AvgPowerW-idleW)),
		sweep.Notef("cluster step (blocks 2-4):  %.3f W", sweep.Num(clusterStep)),
		sweep.Notef("core step (blocks 5-12):    %.3f W", sweep.Num(coreStep)),
		sweep.Notef("cluster activation premium: %.3f W (paper: 0.692 W)", sweep.Num(clusterStep-coreStep)),
	}
	return &sweep.Report{Scenario: "fig4", Sections: []sweep.Section{
		{
			Title: "Figure 4: GT240 power vs. thread block count (cluster staircase)",
			Notes: []sweep.Note{sweep.Notef("idle (pre/post kernel): %.2f W", sweep.Num(idleW))},
		},
		bars,
	}}, nil
}
