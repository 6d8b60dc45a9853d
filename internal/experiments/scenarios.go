package experiments

import "gpusimpow/internal/sweep"

// This file registers every experiment as a named scenario in the sweep
// registry. Each scenario's reducer (next to its spec) builds the
// sweep.Report straight from the run's flat cell records or, for
// table-style artifacts, from a fresh computation; every text output
// comes from the one generic sweep.RenderText, pinned by the golden tests
// (testdata/*.golden). Because reducers consume wire records, the service
// serves the same reports over GET /v1/jobs/{id}/report that the CLI
// renders in-process. Figure 6's sub-figures are fig6 filtered to one GPU
// (`gpowexp run fig6 -filter gpu=GT240`).

func init() {
	sweep.Register(sweep.Scenario{
		Name: "table2", Title: "Table II: key features of the evaluated GPU architectures",
		Reduce: reduceTable2,
	})
	sweep.Register(sweep.Scenario{
		Name: "table4", Title: "Table IV: static power and area (simulated vs. measured/datasheet)",
		Reduce: reduceTable4,
	})
	sweep.Register(sweep.Scenario{
		Name: "table5", Title: "Table V: blackscholes power breakdown on GT240",
		Reduce: reduceTable5,
	})
	sweep.Register(sweep.Scenario{
		Name: "fig4", Title: "Figure 4: GT240 power vs. thread block count (cluster staircase)",
		Reduce: reduceFig4,
	})
	sweep.Register(sweep.Scenario{
		Name: "fig6", Title: "Figure 6: simulated vs. measured power over the benchmark suite",
		Spec:        Fig6Spec,
		Reduce:      reduceFig6,
		CheckFilter: fig6CheckFilter,
	})
	sweep.Register(sweep.Scenario{
		Name: "energyperop", Title: "Section III-D: execution unit energy via lane differencing",
		Spec:        EnergyPerOpSpec,
		Reduce:      reduceEnergyPerOp,
		CheckFilter: energyPerOpCheckFilter,
	})
	sweep.Register(sweep.Scenario{
		Name: "staticextrap", Title: "Section IV-B: static power by frequency extrapolation (GT240)",
		Reduce: reduceStaticExtrap,
	})
	sweep.Register(sweep.Scenario{
		Name: "dvfs", Title: "DVFS sweep: compute-bound kernel on the virtual GT240",
		Spec:   DVFSSpec,
		Reduce: reduceDVFS,
	})

	ablations := []struct {
		title string
		spec  func() *sweep.Spec
	}{
		{"scoreboard vs. blocking issue", AblationScoreboardSpec},
		{"L2 cache", AblationL2Spec},
		{"process node sweep", AblationProcessNodeSpec},
		{"core count scaling", AblationCoreCountSpec},
		{"warp scheduler policy", AblationSchedulerSpec},
	}
	for _, a := range ablations {
		a := a
		sp := a.spec()
		sweep.Register(sweep.Scenario{
			Name: sp.Name, Title: sp.Title,
			Spec: a.spec,
			Reduce: func(recs []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
				return reduceAblation(sp.Name, a.title, recs)
			},
		})
	}
	sweep.Register(sweep.Scenario{
		Name: "l1sched", Title: "Extension: L1 size x scheduler policy on a reuse-heavy workload (GTX580)",
		Spec:   L1SchedSpec,
		Reduce: reduceL1Sched,
	})
	sweep.Register(sweep.Scenario{
		Name: "ablation", Title: "All five design-choice ablation studies",
		Reduce: func(_ []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
			rep := &sweep.Report{Scenario: "ablation"}
			for _, a := range ablations {
				sub, err := sweep.BuildReport(a.spec().Name, nil)
				if err != nil {
					return nil, err
				}
				rep.Sections = append(rep.Sections, sub.Sections...)
			}
			return rep, nil
		},
	})
}
