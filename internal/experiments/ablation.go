package experiments

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sweep"
)

// ---------------------------------------------------------------------------
// E10: design-choice ablations — the kind of architectural what-if studies
// the paper positions GPUSimPow for ("architects can evaluate design choices
// early from a power perspective"). Every study is a one-axis sweep over
// configuration variants on a fixed workload; the planner groups variants
// that share a timing key (the process-node sweep: every node differs only
// in power parameters), so such studies simulate once and batch-evaluate
// the power model per variant.
// ---------------------------------------------------------------------------

// ablationKernel is a medium-intensity mixed kernel (FP work + strided
// global traffic) used for all variants.
func ablationKernel(cfg *config.GPU) (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder("ablation", 12).Params(2)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	b.LdParam(3, 0)
	b.IShl(4, kernel.R(0), kernel.I(2))
	b.IAdd(3, kernel.R(3), kernel.R(4))
	b.Ld(kernel.SpaceGlobal, 5, kernel.R(3), 0)
	b.MovI(6, 0)
	b.Label("loop")
	for i := 0; i < 4; i++ {
		b.FFma(5, kernel.R(5), kernel.F(1.0003), kernel.F(0.25))
	}
	b.IAdd(6, kernel.R(6), kernel.I(1))
	b.ISet(7, kernel.CmpLT, kernel.R(6), kernel.I(16))
	b.When(7).Bra("loop", "store")
	b.Label("store")
	b.LdParam(8, 1)
	b.IAdd(8, kernel.R(8), kernel.R(4))
	b.St(kernel.SpaceGlobal, kernel.R(8), kernel.R(5), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	// Fixed total work so that core-count variants genuinely divide it.
	const n = 12 * 4 * 256
	_ = cfg
	in := mem.AllocZeroF32(n)
	out := mem.AllocZeroF32(n)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: n / 256, Y: 1},
		Block:  kernel.Dim{X: 256, Y: 1},
		Params: []uint32{in, out},
	}, mem
}

// l2ReuseKernel: every block gathers pseudo-randomly from one shared array,
// so an L2 captures cross-block reuse that DRAM otherwise pays for.
func l2ReuseKernel(cfg *config.GPU) (*kernel.Launch, *kernel.GlobalMem) {
	const n = 16384 // 64 KB working set: far beyond L1, comfortably in L2
	b := kernel.NewBuilder("l2reuse", 14).Params(2)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.LdParam(2, 0)
	b.MovF(3, 0) // acc
	b.MovI(4, 0) // i
	b.Label("loop")
	// idx = (tid*97 + i*389 + bid*31) % n  -- scattered but shared
	b.IMul(5, kernel.R(0), kernel.I(97))
	b.IMad(5, kernel.R(4), kernel.I(389), kernel.R(5))
	b.IMad(5, kernel.R(1), kernel.I(31), kernel.R(5))
	b.IAnd(5, kernel.R(5), kernel.I(n-1))
	b.IShl(5, kernel.R(5), kernel.I(2))
	b.IAdd(5, kernel.R(2), kernel.R(5))
	b.Ld(kernel.SpaceGlobal, 6, kernel.R(5), 0)
	b.FAdd(3, kernel.R(3), kernel.R(6))
	b.IAdd(4, kernel.R(4), kernel.I(1))
	b.ISet(7, kernel.CmpLT, kernel.R(4), kernel.I(16))
	b.When(7).Bra("loop", "store")
	b.Label("store")
	b.LdParam(8, 1)
	b.SReg(9, kernel.SpecNTidX)
	b.IMad(9, kernel.R(1), kernel.R(9), kernel.R(0))
	b.IShl(9, kernel.R(9), kernel.I(2))
	b.IAdd(8, kernel.R(8), kernel.R(9))
	b.St(kernel.SpaceGlobal, kernel.R(8), kernel.R(3), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	in := mem.AllocZeroF32(n)
	blocks := cfg.NumCores() * 4
	out := mem.AllocZeroF32(blocks * 256)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: blocks, Y: 1},
		Block:  kernel.Dim{X: 256, Y: 1},
		Params: []uint32{in, out},
	}, mem
}

// kernelWorkload adapts a (launch, mem)-builder into a one-unit sweep
// workload.
func kernelWorkload(kernelFn func(*config.GPU) (*kernel.Launch, *kernel.GlobalMem)) *sweep.Workload {
	var name string
	{
		// The program name identifies the workload; build once against a
		// reference config just for the name (builders are cheap and pure).
		l, _ := kernelFn(config.GT240())
		name = l.Prog.Name
	}
	return &sweep.Workload{
		Name: name,
		Build: func(cfg *config.GPU) (*sweep.Instance, error) {
			l, mem := kernelFn(cfg)
			return &sweep.Instance{Mem: mem, Units: []sweep.Unit{{Name: l.Prog.Name, Launch: l}}}, nil
		},
	}
}

// ablationSpec assembles one design-choice study: a variant axis over
// configurations, the standard two-stage sim+power pipeline, no
// measurement.
func ablationSpec(name, title string, variants []sweep.Value, kernelFn func(*config.GPU) (*kernel.Launch, *kernel.GlobalMem)) *sweep.Spec {
	w := kernelWorkload(kernelFn)
	return &sweep.Spec{
		Name:     name,
		Title:    title,
		Axes:     []sweep.Axis{{Name: "variant", Values: variants}},
		Workload: func(*sweep.Cell) (*sweep.Workload, error) { return w, nil },
		Sim:      true, Power: true,
	}
}

// reduceAblation folds one study's flat cell records into its table
// (variant order = axis order) — the one reduction the CLI report and the
// service's wire report both go through.
func reduceAblation(name, title string, recs []*sweep.CellRecord) (*sweep.Report, error) {
	sec := sweep.Section{
		Title:  "Ablation: " + title,
		Indent: "  ",
		Columns: []sweep.Column{
			{Label: "Variant", Format: "%-28s"},
			{Label: "Cycles", Unit: "cycles", Format: "%10d", Head: "%10s"},
			{Label: "Total W", Unit: "W", Format: "%9.2f", Head: "%9s"},
			{Label: "Dyn W", Unit: "W", Format: "%9.2f", Head: "%9s"},
			{Label: "Stat W", Unit: "W", Format: "%9.2f", Head: "%9s"},
			{Label: "Energy mJ", Unit: "mJ", Format: "%10.3f", Head: "%10s"},
		},
		Header: true,
	}
	for _, rec := range recs {
		if len(rec.Units) == 0 || rec.Units[0].Timing == nil || rec.Units[0].Power == nil {
			return nil, fmt.Errorf("experiments: ablation: record %s missing timing/power", rec.CoordString())
		}
		u := &rec.Units[0]
		label := ""
		for _, co := range rec.Coords {
			if co.Axis == "variant" {
				label = co.Label
			}
		}
		sec.Rows = append(sec.Rows, []sweep.Datum{
			sweep.Str(label), sweep.Uint(u.Timing.Cycles),
			sweep.Num(u.Power.TotalW), sweep.Num(u.Power.DynamicW), sweep.Num(u.Power.StaticW),
			sweep.Num(u.Power.TotalW * u.Power.Seconds * 1e3),
		})
	}
	return &sweep.Report{Scenario: name, Sections: []sweep.Section{sec}}, nil
}

// AblationScoreboardSpec compares blocking barrel issue against scoreboarded
// issue on an otherwise identical GT240-class core.
func AblationScoreboardSpec() *sweep.Spec {
	return ablationSpec("ablation-scoreboard", "Ablation: scoreboard vs. blocking issue (GT240)",
		[]sweep.Value{
			{Name: "blocking", Label: "blocking issue (GT240)", Base: config.GT240},
			{Name: "scoreboard", Label: "scoreboarded issue", Base: func() *config.GPU {
				sb := config.GT240()
				sb.Name = "GT240+scoreboard"
				sb.HasScoreboard = true
				sb.ScoreboardEntries = 6
				return sb
			}},
		}, ablationKernel)
}

// AblationL2Spec compares the GTX580 with and without its L2 cache on a
// reuse-heavy workload (every block re-reads the same array — the access
// pattern an L2 exists for).
func AblationL2Spec() *sweep.Spec {
	return ablationSpec("ablation-l2", "Ablation: L2 cache on a reuse-heavy workload (GTX580)",
		[]sweep.Value{
			{Name: "l2", Label: "768KB L2 (GTX580)", Base: config.GTX580},
			{Name: "nol2", Label: "no L2", Base: func() *config.GPU {
				no := config.GTX580()
				no.Name = "GTX580-noL2"
				no.L2KB = 0
				return no
			}},
		}, l2ReuseKernel)
}

// AblationProcessNodeSpec sweeps the manufacturing node, the ITRS-style
// scaling study McPAT integration enables. The node is a power-only
// parameter, so the whole sweep is one timing group: one simulation, five
// batched power evaluations.
func AblationProcessNodeSpec() *sweep.Spec {
	var variants []sweep.Value
	for _, nm := range []float64{65, 45, 40, 32, 28} {
		nm := nm
		name := fmt.Sprintf("GT240@%.0fnm", nm)
		variants = append(variants, sweep.Value{
			Name:  fmt.Sprintf("%.0fnm", nm),
			Label: name,
			Mutate: func(c *config.GPU) {
				c.Name = name
				c.ProcessNM = nm
			},
		})
	}
	sp := ablationSpec("ablation-processnode", "Ablation: process node sweep (GT240)", variants, ablationKernel)
	sp.Base = config.GT240
	return sp
}

// AblationCoreCountSpec scales the core count at constant cluster shape,
// exercising the "coherently simulate an architecture with a varied number
// of cores" claim of Section III-A.
func AblationCoreCountSpec() *sweep.Spec {
	var variants []sweep.Value
	for _, clusters := range []int{2, 4, 6, 8} {
		clusters := clusters
		c := config.GT240()
		c.Clusters = clusters
		variants = append(variants, sweep.Value{
			Name:  fmt.Sprintf("%dclusters", clusters),
			Label: fmt.Sprintf("%d cores (%d clusters)", c.NumCores(), clusters),
			Mutate: func(c *config.GPU) {
				c.Name = fmt.Sprintf("GT240x%dclusters", clusters)
				c.Clusters = clusters
			},
		})
	}
	sp := ablationSpec("ablation-corecount", "Ablation: core count scaling (GT240)", variants, ablationKernel)
	sp.Base = config.GT240
	return sp
}

// AblationSchedulerSpec compares the warp scheduling policies the paper's
// conclusion proposes evaluating "from a power perspective": rotating
// priority (baseline), greedy-then-oldest, and two-level scheduling with a
// narrow active set (and hence a narrower arbitration encoder).
func AblationSchedulerSpec() *sweep.Spec {
	var variants []sweep.Value
	for _, pol := range []string{"rr", "gto", "twolevel"} {
		pol := pol
		variants = append(variants, sweep.Value{
			Name:  pol,
			Label: pol + " scheduler",
			Mutate: func(c *config.GPU) {
				c.Name = "GTX580-" + pol
				c.SchedulerPolicy = pol
			},
		})
	}
	sp := ablationSpec("ablation-scheduler", "Ablation: warp scheduler policy (GTX580)", variants, ablationKernel)
	sp.Base = config.GTX580
	return sp
}
