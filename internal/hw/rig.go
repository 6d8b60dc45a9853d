package hw

// This file models the measurement chain of the paper's Section IV-A: a
// riser card with 20 mOhm probing resistors on the 12 V and 3.3 V PCIe slot
// rails (plus 10 mOhm resistors in the external PCIe power cables for cards
// that have them), a signal conditioning board with a resistive divider
// (gain accuracy +/-1.7 %) and AD8210 current shunt monitors (gain accuracy
// +/-0.5 %, offset up to 1 mV ~ 60 mW at 12 V), sampled by a NI USB-6210
// DAQ at 31.2 kHz. Overall the chain measures power within +/-3.2 %.

// DAQSampleHz is the acquisition rate of the modeled NI USB-6210 setup.
const DAQSampleHz = 31200.0

// rail models one measured supply rail.
type rail struct {
	name string
	// share is the fraction of card power drawn from this rail.
	share float64
	// voltageGainErr and currentGainErr are the fixed calibration errors of
	// the resistive divider (±1.7 %) and AD8210 + shunt (±1.5 %).
	voltageGainErr float64
	currentGainErr float64
	// offsetW is the AD8210 output offset translated to watts (±60 mW).
	offsetW float64
	// noiseW is the per-sample RMS noise of the DAQ channel.
	noiseW float64
}

// chain is the complete measurement chain of one card.
type chain struct {
	rails []rail
	noise *rng
}

// newChain builds the measurement chain. Cards with external PCIe power
// connectors (GTX580) split the load across slot and cable rails; low-power
// cards (GT240) draw everything through the slot. The rng seeds both the
// fixed calibration errors and the ongoing sample noise; use retuneNoise to
// give a chain an independent noise stream while keeping its calibration.
func newChain(r *rng, hasExternalPower bool) *chain {
	mk := func(name string, share float64) rail {
		return rail{
			name:           name,
			share:          share,
			voltageGainErr: r.uniform(-0.017, 0.017),
			currentGainErr: r.uniform(-0.015, 0.015),
			offsetW:        r.uniform(-0.060, 0.060),
			noiseW:         0.04,
		}
	}
	var rails []rail
	if hasExternalPower {
		rails = []rail{
			mk("slot12V", 0.35),
			mk("slot3V3", 0.05),
			mk("ext12V-A", 0.30),
			mk("ext12V-B", 0.30),
		}
	} else {
		rails = []rail{
			mk("slot12V", 0.80),
			mk("slot3V3", 0.20),
		}
	}
	return &chain{rails: rails, noise: r}
}

// retuneNoise replaces the chain's DAQ noise stream without touching the
// rails' fixed calibration errors: the same physical rig, observed in a
// different measurement session.
func (c *chain) retuneNoise(r *rng) { c.noise = r }

// noiseBlock is how many per-rail noise sums measureRun draws at a time.
const noiseBlock = 512

// measureRun fills out with the DAQ samples of a stretch of waveform whose
// true power relaxes towards targetW through the supply's first-order
// response (level += (targetW-level)*alpha per sample), and returns the
// final level. Each sample applies the per-rail gain errors, offsets and
// sample noise, summed over rails (the paper's methodology measures all
// power sources, unlike the prior work it criticises). The noise sums are
// drawn a block at a time, but every sample's arithmetic keeps the form and
// order of drawing its noise in turn, so the samples are bit-identical to
// per-sample measurement and do not depend on the block size.
func (c *chain) measureRun(out []float64, level, targetW, alpha float64) float64 {
	var sums [noiseBlock]float64
	nr := len(c.rails)
	perBlock := noiseBlock / nr
	for len(out) > 0 {
		k := min(len(out), perBlock)
		noise := sums[:k*nr]
		c.noise.irwinHall(noise)
		for i := range out[:k] {
			level += (targetW - level) * alpha
			var sum float64
			for j := range c.rails {
				r := &c.rails[j]
				p := level * r.share
				p *= (1 + r.voltageGainErr) * (1 + r.currentGainErr)
				p += r.offsetW + (noise[i*nr+j]-6)*r.noiseW
				sum += p
			}
			out[i] = sum
		}
		out = out[k:]
	}
	return level
}

// worstCaseErrorFraction returns the chain's error budget (the paper's
// +/-3.2 %): used by tests to assert the modeled chain stays within spec.
func (c *chain) worstCaseErrorFraction() float64 { return 0.032 }
