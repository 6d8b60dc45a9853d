package experiments

import (
	"fmt"
	"math"
	"strconv"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sweep"
)

// ---------------------------------------------------------------------------
// E7: Section III-D — deriving execution-unit energy empirically.
// ---------------------------------------------------------------------------

// EnergyPerOpSpec declares the paper's microbenchmark methodology as a
// sweep: "we are alternately configuring the test kernels to use 31 enabled
// threads per warp and 1 enabled thread per warp. Both configurations have
// the same execution time. We then calculate the energy difference between
// these two kernel launches and divide the result by the number of executed
// instructions ... to arrive at an estimate for the energy used by a single
// execution unit executing a single instruction." The grid is (op: int, fp)
// × (lanes: 31, 1); the integer loop simulates linear feedback shift
// registers, the floating-point loop iterates the Mandelbrot map. The four
// cells share one card (SharedCard): the lane-differencing methodology
// subtracts consecutive measurements on one rig, so the rig's noise-stream
// order is part of what is reproduced.
func EnergyPerOpSpec() *sweep.Spec {
	return &sweep.Spec{
		Name:  "energyperop",
		Title: "Section III-D: execution-unit energy via lane differencing (GT240)",
		Axes: []sweep.Axis{
			{Name: "op", Values: []sweep.Value{{Name: "int"}, {Name: "fp"}}},
			{Name: "lanes", Values: []sweep.Value{{Name: "31"}, {Name: "1"}}},
		},
		Base: config.GT240,
		Workload: func(c *sweep.Cell) (*sweep.Workload, error) {
			lanes, err := strconv.Atoi(c.Value("lanes"))
			if err != nil {
				return nil, err
			}
			mk := lfsrKernel
			if c.Value("op") == "fp" {
				mk = mandelbrotKernel
			}
			// Build once for the name; workloads are identified by program
			// name ("lfsr31", "mandel1", ...).
			l, _ := mk(2, lanes)
			return &sweep.Workload{
				Name: l.Prog.Name,
				Build: func(cfg *config.GPU) (*sweep.Instance, error) {
					l, mem := mk(cfg.NumCores(), lanes)
					return &sweep.Instance{Mem: mem, Units: []sweep.Unit{
						{Name: l.Prog.Name, Launch: l, MinWindowS: 0.150},
					}}, nil
				},
			}, nil
		},
		Sim: true, Measure: true,
		SharedCard: true,
	}
}

// energyPerOpCheckFilter rejects any filter: the 31-vs-1 lane pairing
// needs the full grid.
func energyPerOpCheckFilter(f sweep.Filter) error {
	if len(f) > 0 {
		return fmt.Errorf("experiments: energyperop needs its full grid (31-vs-1 lane differencing); run it unfiltered")
	}
	return nil
}

// reduceEnergyPerOp differences the grid's 31-lane and 1-lane cells per
// operation class and sets the estimates against the model's configured
// anchors (the paper measured ~40 pJ INT and ~75 pJ FP; NVIDIA reports
// 50 pJ/FP). Per cell, the timing stage counts thread instructions (the
// power model has nothing to add to an instruction count, so the spec
// skips the power stage) and the measurement stage yields the kernel
// energy: the wire records carry the per-class thread-instruction counts
// (TimingRecord.Int/FPThreadInstrs) and the measured kernel energy, which
// is everything the methodology needs.
func reduceEnergyPerOp(recs []*sweep.CellRecord, f sweep.Filter) (*sweep.Report, error) {
	if err := energyPerOpCheckFilter(f); err != nil {
		return nil, err
	}
	if len(recs) != 4 {
		return nil, fmt.Errorf("experiments: energyperop needs its full 4-cell grid, got %d record(s)", len(recs))
	}
	cfg := config.GT240()

	// Records arrive in row-major order: (int,31), (int,1), (fp,31), (fp,1).
	estimate := func(recs []*sweep.CellRecord, isFP bool) (float64, error) {
		counts := [2]float64{}
		energies := [2]float64{}
		for i, rec := range recs {
			if len(rec.Units) == 0 || rec.Units[0].Timing == nil || rec.Units[0].Meas == nil {
				return 0, fmt.Errorf("experiments: energyperop: record %s missing timing/measurement", rec.CoordString())
			}
			u := &rec.Units[0]
			if isFP {
				counts[i] = float64(u.Timing.FPThreadInstrs)
			} else {
				counts[i] = float64(u.Timing.IntThreadInstrs)
			}
			// Energy per single kernel execution: average power above idle
			// is what the execution units add; the paper differences two
			// launches, cancelling everything except the enabled lanes.
			energies[i] = u.Meas.AvgPowerW * u.Meas.KernelSeconds
		}
		dE := energies[0] - energies[1]
		dOps := counts[0] - counts[1]
		if dOps <= 0 {
			return 0, fmt.Errorf("experiments: lane differencing produced no op delta")
		}
		return dE / dOps * 1e12, nil
	}
	intPJ, err := estimate(recs[0:2], false)
	if err != nil {
		return nil, err
	}
	fpPJ, err := estimate(recs[2:4], true)
	if err != nil {
		return nil, err
	}
	return &sweep.Report{Scenario: "energyperop", Sections: []sweep.Section{{
		Title: "Section III-D: execution unit energy via lane differencing",
		Notes: []sweep.Note{
			sweep.Notef("INT: measured %.1f pJ/op (model anchor %.0f pJ; paper ~40 pJ)",
				sweep.Num(intPJ), sweep.Num(cfg.Power.IntOpPJ)),
			sweep.Notef("FP:  measured %.1f pJ/op (model anchor %.0f pJ; paper ~75 pJ, NVIDIA reports 50 pJ)",
				sweep.Num(fpPJ), sweep.Num(cfg.Power.FPOpPJ)),
		},
	}}}, nil
}

// lfsrKernel: each enabled lane iterates a 32-bit xorshift LFSR with an
// unrolled body; one block per core, 512 threads per block (paper setup).
func lfsrKernel(cores, lanesEnabled int) (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder(fmt.Sprintf("lfsr%d", lanesEnabled), 10).Params(1)
	b.SReg(0, kernel.SpecLane)
	b.ISet(1, kernel.CmpGE, kernel.R(0), kernel.I(int32(lanesEnabled)))
	b.When(1).Exit()
	b.SReg(2, kernel.SpecTidX)
	b.IAdd(2, kernel.R(2), kernel.I(0x1234))
	b.MovI(3, 0)
	b.Label("loop")
	for u := 0; u < 8; u++ {
		// x ^= x << 13; x ^= x >> 17; x ^= x << 5
		b.IShl(4, kernel.R(2), kernel.I(13))
		b.IXor(2, kernel.R(2), kernel.R(4))
		b.IShr(4, kernel.R(2), kernel.I(17))
		b.IXor(2, kernel.R(2), kernel.R(4))
		b.IShl(4, kernel.R(2), kernel.I(5))
		b.IXor(2, kernel.R(2), kernel.R(4))
	}
	b.IAdd(3, kernel.R(3), kernel.I(1))
	b.ISet(5, kernel.CmpLT, kernel.R(3), kernel.I(24))
	b.When(5).Bra("loop", "end")
	b.Label("end")
	b.LdParam(6, 0)
	b.SReg(7, kernel.SpecTidX)
	b.IShl(7, kernel.R(7), kernel.I(2))
	b.IAdd(6, kernel.R(6), kernel.R(7))
	b.St(kernel.SpaceGlobal, kernel.R(6), kernel.R(2), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(512 * 4)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: cores, Y: 1},
		Block:  kernel.Dim{X: 512, Y: 1},
		Params: []uint32{out},
	}, mem
}

// mandelbrotKernel: each enabled lane iterates z = z^2 + c with an unrolled
// body.
func mandelbrotKernel(cores, lanesEnabled int) (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder(fmt.Sprintf("mandel%d", lanesEnabled), 14).Params(1)
	b.SReg(0, kernel.SpecLane)
	b.ISet(1, kernel.CmpGE, kernel.R(0), kernel.I(int32(lanesEnabled)))
	b.When(1).Exit()
	b.SReg(2, kernel.SpecTidX)
	b.I2F(2, kernel.R(2))
	b.FMul(3, kernel.R(2), kernel.F(0.0001)) // cr
	b.FMul(4, kernel.R(2), kernel.F(0.0002)) // ci
	b.MovF(5, 0)                             // zr
	b.MovF(6, 0)                             // zi
	b.MovI(7, 0)
	b.Label("loop")
	for u := 0; u < 4; u++ {
		b.FMul(8, kernel.R(5), kernel.R(5))               // zr^2
		b.FMul(9, kernel.R(6), kernel.R(6))               // zi^2
		b.FMul(10, kernel.R(5), kernel.R(6))              // zr zi
		b.FSub(5, kernel.R(8), kernel.R(9))               // zr' = zr^2 - zi^2
		b.FAdd(5, kernel.R(5), kernel.R(3))               //     + cr
		b.FFma(6, kernel.R(10), kernel.F(2), kernel.R(4)) // zi' = 2 zr zi + ci
	}
	b.IAdd(7, kernel.R(7), kernel.I(1))
	b.ISet(11, kernel.CmpLT, kernel.R(7), kernel.I(24))
	b.When(11).Bra("loop", "end")
	b.Label("end")
	b.LdParam(12, 0)
	b.SReg(13, kernel.SpecTidX)
	b.IShl(13, kernel.R(13), kernel.I(2))
	b.IAdd(12, kernel.R(12), kernel.R(13))
	b.St(kernel.SpaceGlobal, kernel.R(12), kernel.R(5), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(512 * 4)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: cores, Y: 1},
		Block:  kernel.Dim{X: 512, Y: 1},
		Params: []uint32{out},
	}, mem
}

// ---------------------------------------------------------------------------
// E8: Section IV-B — static power extrapolation experiment.
// ---------------------------------------------------------------------------

// reduceStaticExtrap runs the frequency-extrapolation methodology on the
// virtual GT240 and checks it against the card's actual leakage.
func reduceStaticExtrap(_ []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	est, card, err := measuredStaticW("GT240")
	if err != nil {
		return nil, err
	}
	truth := card.TrueStaticW()
	return &sweep.Report{Scenario: "staticextrap", Sections: []sweep.Section{{
		Title: "Section IV-B: static power by frequency extrapolation (GT240)",
		Notes: []sweep.Note{sweep.Notef("estimated %.2f W vs. true card leakage %.2f W (error %.1f%%)",
			sweep.Num(est), sweep.Num(truth), sweep.Num(math.Abs(est-truth)/truth*100))},
	}}}, nil
}
