// Package core is the GPUSimPow framework: it couples the cycle-accurate
// performance simulator (internal/sim, the GPGPU-Sim analog) with the
// GPGPU-Pow power model (internal/power, the McPAT-derived analog) exactly
// as Figure 1 of the paper shows:
//
//	GPU configuration + GPGPU kernel
//	        |
//	        v
//	  GPGPU simulator  --activity-->  power model  -->  power & area results
//
// Given a configuration and a kernel, it produces architectural information
// (static power, peak dynamic power, area) and runtime dynamic power for the
// kernel, including hierarchical power profiles (paper Section V-B).
package core

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/power"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
)

// Simulator is a configured GPUSimPow instance.
type Simulator struct {
	cfg  *config.GPU
	perf *sim.GPU
	pow  *power.Model
}

// simulators holds one Simulator per configuration value.
var simulators config.Memo[*Simulator]

// New returns the GPUSimPow instance for the configuration. A Simulator
// keeps its own copy of the configuration, and its simulator and power
// model serve concurrent launches, so equal configurations share one
// instance per process: only the first New of a value builds it.
func New(cfg *config.GPU) (*Simulator, error) {
	return simulators.Get(cfg, newSimulator)
}

// newSimulator builds the instance for a configuration that Validate
// accepted and that the instance may keep.
func newSimulator(cfg *config.GPU) (*Simulator, error) {
	perf, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	pow, err := power.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, perf: perf, pow: pow}, nil
}

// Config returns the simulated configuration, shared by every caller of
// New with an equal configuration: read it, never modify it.
func (s *Simulator) Config() *config.GPU { return s.cfg }

// Static returns the workload-independent architectural estimates: area,
// leakage power, peak dynamic power (paper Table IV).
func (s *Simulator) Static() *power.StaticReport { return s.pow.Static() }

// KernelReport bundles the performance and power results of one launch.
type KernelReport struct {
	Kernel string
	Perf   *sim.Result
	Power  *power.RuntimeReport
}

// Simulate runs the pure timing stage of one kernel launch: cycle counts,
// activity counters and the functional memory update, with no power
// evaluation. It is served through the process-wide content-addressed
// simulation-result cache (internal/simcache): launches whose
// timing-relevant configuration subset, program, launch geometry and input
// memory images have been simulated before replay in microseconds, with the
// global memory image updated in place either way — so subsequent kernels
// of a multi-kernel benchmark see preceding results, as on real hardware.
// A replay is bit-identical to a fresh simulation (sim.GPU.Run).
func (s *Simulator) Simulate(l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) (*simcache.TimingResult, error) {
	tr, err := simcache.Run(s.perf, l, global, cmem)
	if err != nil {
		return nil, fmt.Errorf("core: simulating %s: %w", l.Prog.Name, err)
	}
	return tr, nil
}

// EvaluatePower runs the pure power stage: the analytic model applied to a
// timing snapshot. Sweeps that vary only power-side parameters (process
// node, power anchors, clock scaling at the card level) call this once per
// operating point against one shared timing result.
func (s *Simulator) EvaluatePower(tr *simcache.TimingResult) (*power.RuntimeReport, error) {
	return s.PowerEvaluator().EvaluatePower(tr)
}

// PowerEvaluator is the pure power stage of GPUSimPow for one configuration:
// a Simulator without the timing machinery. Sweep executors that partition a
// grid by timing key simulate once per timing group and price the shared
// timing result once per power-parameter variant, each with that variant's
// evaluator; the models behind both are built once per configuration value.
type PowerEvaluator struct {
	pow *power.Model
}

// NewPowerEvaluator returns the power stage alone for a configuration, on
// the configuration's shared model (power.New).
func NewPowerEvaluator(cfg *config.GPU) (*PowerEvaluator, error) {
	pow, err := power.New(cfg)
	if err != nil {
		return nil, err
	}
	return &PowerEvaluator{pow: pow}, nil
}

// PowerEvaluator returns the simulator's own power stage, sharing its
// model.
func (s *Simulator) PowerEvaluator() *PowerEvaluator {
	return &PowerEvaluator{pow: s.pow}
}

// Static returns the workload-independent architectural estimates.
func (p *PowerEvaluator) Static() *power.StaticReport { return p.pow.Static() }

// EvaluatePower prices one timing snapshot under this evaluator's
// configuration.
func (p *PowerEvaluator) EvaluatePower(tr *simcache.TimingResult) (*power.RuntimeReport, error) {
	rt, err := p.pow.Evaluate(tr.Perf)
	if err != nil {
		return nil, fmt.Errorf("core: power for %s: %w", tr.Kernel, err)
	}
	return rt, nil
}

// EvaluatePowerBatch evaluates one shared timing result under every power
// variant, returning reports in argument order: N EvaluatePower calls, the
// first failing variant aborting the batch.
func EvaluatePowerBatch(evs []*PowerEvaluator, tr *simcache.TimingResult) ([]*power.RuntimeReport, error) {
	rts := make([]*power.RuntimeReport, len(evs))
	for i, ev := range evs {
		rt, err := ev.EvaluatePower(tr)
		if err != nil {
			return nil, err
		}
		rts[i] = rt
	}
	return rts, nil
}

// RunKernel simulates one kernel launch and evaluates its power: the
// two-stage pipeline (Simulate, then EvaluatePower) as one call.
func (s *Simulator) RunKernel(l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) (*KernelReport, error) {
	tr, err := s.Simulate(l, global, cmem)
	if err != nil {
		return nil, err
	}
	rt, err := s.EvaluatePower(tr)
	if err != nil {
		return nil, err
	}
	return &KernelReport{Kernel: tr.Kernel, Perf: tr.Perf, Power: rt}, nil
}
