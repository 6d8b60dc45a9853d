// Package hw is the virtual measurement testbed: the repository's substitute
// for the paper's real GT240/GTX580 graphics cards and custom DAQ setup
// (Section IV). A Card owns a ground-truth power model — a deterministic
// perturbation of the analytic model, standing in for real silicon whose
// per-component energies never exactly match a simulator — and a modeled
// measurement chain (sense resistors, AD8210 monitors, 31.2 kHz DAQ). The
// validation loop of the paper (simulate, measure, compare, report relative
// error) runs end to end against it; measurement error and model mismatch
// are emergent, not scripted.
package hw

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/gddr"
	"gpusimpow/internal/power"
	"gpusimpow/internal/sim"
)

// dieSizes holds the real (datasheet) die areas the paper's Table IV quotes.
var dieSizes = map[string]float64{
	"GT240":  133,
	"GTX580": 520,
}

// Card is a virtual graphics card plus its measurement rig: its silicon,
// shared by every card of the configuration, with the card's own DAQ noise
// stream and clock scale.
type Card struct {
	*silicon
	chain chain

	clockScale float64
}

// silicon is what a configuration's cards have in common: the perturbed
// "truth" configuration, its simulator and power model, and the rig's
// calibration. It is immutable once built.
type silicon struct {
	name  string
	truth *config.GPU // perturbed configuration: the "silicon"

	perf  *sim.GPU
	model *power.Model

	// rig is the calibrated measurement chain, its noise stream where the
	// calibration draws left it: an untagged session's stream starts
	// there.
	rig chain

	// capTauS is the time constant of the supply's bulk capacitance: the
	// effect that makes sub-50 ms kernels hard to measure (Section II).
	capTauS float64
}

// silicons holds one silicon per configuration value.
var silicons config.Memo[*silicon]

// NewCard manufactures the virtual card for a configuration. The silicon
// perturbation is seeded by the card name: the same card model always
// measures the same.
func NewCard(cfg *config.GPU) (*Card, error) {
	return NewCardSession(cfg, "")
}

// NewCardSession manufactures the same virtual card — identical silicon and
// identical rig calibration (both are seeded by the card name) — but with a
// DAQ noise stream derived from the session tag. Concurrent measurement
// jobs (the experiment sweeps fanning out over internal/runner) use
// distinct tags so their sample noise is independent rather than a replay
// of one shared stream, while results stay deterministic for a given tag.
// The silicon is built once per configuration value and shared; each card
// owns its noise stream and clock scale.
func NewCardSession(cfg *config.GPU, session string) (*Card, error) {
	si, err := silicons.Get(cfg, newSilicon)
	if err != nil {
		return nil, err
	}
	c := &Card{silicon: si, chain: si.rig, clockScale: 1}
	if session != "" {
		c.chain.noise = rng{state: seedFromString(cfg.Name + "/rig/" + session)}
	}
	return c, nil
}

// newSilicon manufactures a configuration's silicon and calibrates its rig.
func newSilicon(cfg *config.GPU) (*silicon, error) {
	truth := perturb(cfg)
	perf, err := sim.New(truth)
	if err != nil {
		return nil, err
	}
	model, err := power.New(truth)
	if err != nil {
		return nil, err
	}
	rig := newChain(newRNG(seedFromString(cfg.Name+"/rig")), cfg.NumCores() > 12) // big cards have external power
	return &silicon{
		name:    cfg.Name,
		truth:   truth,
		perf:    perf,
		model:   model,
		rig:     *rig,
		capTauS: 1.5e-3,
	}, nil
}

// perturb derives the silicon truth from the nominal configuration: every
// empirical anchor is multiplied by a deterministic per-component factor.
// The distribution is biased slightly below 1, which reproduces the paper's
// observation that "in nearly every benchmark kernel, the simulator slightly
// overestimates the true power consumed by the chip".
func perturb(cfg *config.GPU) *config.GPU {
	t := *cfg // shallow copy is fine: config has no pointers
	r := newRNG(seedFromString(cfg.Name + "/silicon"))
	p := &t.Power

	// Compute-side component energies: modest mismatch.
	p.IntOpPJ *= r.uniform(0.88, 1.02)
	p.FPOpPJ *= r.uniform(0.88, 1.02)
	p.SFUOpPJ *= r.uniform(0.82, 1.04)
	p.AGUOpPJ *= r.uniform(0.85, 1.05)
	p.DecodePJ *= r.uniform(0.85, 1.05)

	// Memory-side energies: publicly undocumented, larger mismatch.
	p.NoCFlitPJ *= r.uniform(0.70, 1.02)
	p.MCRequestPJ *= r.uniform(0.70, 1.02)
	p.PCIeActiveW *= r.uniform(0.80, 1.02)

	// Base power anchors.
	p.GlobalSchedW *= r.uniform(0.88, 1.02)
	p.ClusterBaseW *= r.uniform(0.88, 1.02)
	p.CoreBaseDynW *= r.uniform(0.88, 1.04)

	// Global analytic-model mismatch (wire loads, clock tree, activity
	// factors the simulator cannot see).
	p.DynScaleFactor *= r.uniform(0.86, 0.97)

	// Empirical-model transfer mismatch: the paper derives its execution
	// unit and base-power anchors on the GT240 and transfers them to other
	// cards (Section V-A notes the models "were obtained using the GT240
	// card"). Cards other than the calibration card therefore carry extra
	// per-anchor deviation.
	if cfg.Name != "GT240" {
		p.IntOpPJ *= r.uniform(0.84, 1.02)
		p.FPOpPJ *= r.uniform(0.84, 1.02)
		p.SFUOpPJ *= r.uniform(0.80, 1.04)
		p.GlobalSchedW *= r.uniform(0.82, 1.00)
		p.ClusterBaseW *= r.uniform(0.82, 1.00)
		p.CoreBaseDynW *= r.uniform(0.82, 1.00)
	}

	// Static: real chips leak slightly less than the calibrated model here
	// (paper Table IV: 17.6 vs 17.9 W; 80 vs 81.5 W).
	staticScale := r.uniform(0.972, 0.995)
	p.UndiffCoreStaticW *= staticScale
	p.NoCStaticW *= staticScale
	p.MCStaticW *= staticScale
	p.PCIeIdleW *= staticScale
	p.UncoreStaticW *= staticScale
	p.LeakageTempFactor *= staticScale
	return &t
}

// RealAreaMM2 returns the physical die size (a datasheet constant, the
// "Real" area row of Table IV).
func (c *Card) RealAreaMM2() float64 {
	if a, ok := dieSizes[c.name]; ok {
		return a
	}
	// Unknown card: pretend the die is ~25 % bigger than modeled, the
	// typical gap the paper observes (undifferentiated logic).
	return c.model.Static().AreaMM2 * 1.25
}

// TrueStaticW exposes the ground-truth leakage. Real experiments cannot read
// this directly — they estimate it via frequency extrapolation — but tests
// use it to verify the estimation methodology.
func (c *Card) TrueStaticW() float64 { return c.model.Static().StaticW }

// SetClockScale changes the GPU clocks (all domains) to scale*nominal, the
// mechanism behind the static power estimation methodology of Section IV-B.
// Supported range is [0.5, 1.0]; the real driver exposes similar limits.
func (c *Card) SetClockScale(s float64) error {
	if !(s >= 0.5 && s <= 1.0) { // also rejects NaN
		return fmt.Errorf("hw: clock scale %.2f outside [0.5, 1.0]", s)
	}
	c.clockScale = s
	return nil
}

// ClockScale returns the current scaling.
func (c *Card) ClockScale() float64 { return c.clockScale }

// PrePostKernelPowerW is the card's power draw shortly before and after a
// kernel executes (clocks up, nothing running): static plus ~10 % idle
// dynamic — the state in which the paper observes 19.5 W (GT240) and 90 W
// (GTX580), "about 90 % of the power consumed by the card in this state thus
// seems to be static power".
func (c *Card) PrePostKernelPowerW() float64 {
	return c.TrueStaticW() / 0.9
}

// IdlePowerW is the deep-idle draw with power gating engaged (the GT240's
// ~15 W state).
func (c *Card) IdlePowerW() float64 {
	s := c.TrueStaticW()
	gated := s * (1 - float64(c.truth.Power.IdleGatingFraction*2.35))
	if gated < 0 {
		gated = 0
	}
	return gated + float64(s*0.1)
}

// TimingKey is the timing-relevant identity of the card's silicon
// (config.GPU.TimingKey). The silicon perturbation touches only power-side
// anchors, so it equals the nominal configuration's key; a timing result
// computed for that key is what the card itself would compute, and
// SeqItem.Timing may carry it.
func (c *Card) TimingKey() [32]byte { return c.perf.TimingKey() }

// kernelTruePower prices a launch's timing result with the card's silicon
// model: the true average power (GPU + DRAM, since the rig measures the
// whole board) and the true kernel duration at the current clock scale.
// The scale is applied analytically below, never simulated, so one timing
// result serves every clock scale.
func (c *Card) kernelTruePower(perf *sim.Result) (powerW, seconds float64, err error) {
	rt, err := c.model.Evaluate(perf)
	if err != nil {
		return 0, 0, err
	}
	// Clock scaling: cycle counts are unchanged, wall time stretches by 1/s,
	// dynamic power scales by s, static stays. The DRAM splits the same way:
	// background and refresh are constant, command-driven components scale
	// with the traffic rate.
	s := c.clockScale
	seconds = rt.Seconds / s
	dramStatic := rt.DRAM.Background + rt.DRAM.Refresh
	dramDyn := rt.DRAM.Activate + rt.DRAM.ReadWrite + rt.DRAM.Termination
	powerW = rt.StaticW + dramStatic + float64((rt.DynamicW+dramDyn)*s)
	return powerW, seconds, nil
}

// DRAMIdleW returns the board's DRAM background + refresh power: the rig
// measures the whole card, so frequency extrapolation recovers GPU static
// plus this term.
func (c *Card) DRAMIdleW() float64 {
	chip, err := gddr.ForType(c.truth.MemType, c.truth.MemDataRateGbps)
	if err != nil {
		chip = gddr.HynixGDDR5(c.truth.MemDataRateGbps)
	}
	return chip.IdlePower() * float64(c.truth.GDDRChips())
}

// TrueBoardStaticW is the frequency-independent board power: GPU leakage
// plus DRAM background — what the Section IV-B extrapolation converges to.
func (c *Card) TrueBoardStaticW() float64 { return c.TrueStaticW() + c.DRAMIdleW() }
