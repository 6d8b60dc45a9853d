package hw

import (
	"math"
	"testing"

	"gpusimpow/internal/config"
)

// gauss is the sequential reference for irwinHall: one approximately
// normal sample with the given sigma (Irwin-Hall sum of 12 uniforms).
func (r *rng) gauss(sigma float64) float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.float()
	}
	return (s - 6) * sigma
}

// measure is the sequential reference for measureRun: one DAQ sample of
// the true instantaneous power trueW.
func (c *chain) measure(trueW float64) float64 {
	var sum float64
	for _, r := range c.rails {
		p := trueW * r.share
		p *= (1 + r.voltageGainErr) * (1 + r.currentGainErr)
		p += r.offsetW + c.noise.gauss(r.noiseW)
		sum += p
	}
	return sum
}

// TestMeasureRunMatchesSequential pins the block noise path to per-sample
// measurement bit for bit, on both rail layouts, across block boundaries
// and from mid-phase filter levels.
func TestMeasureRunMatchesSequential(t *testing.T) {
	// irwinHall alone, across its four-sum stride and beyond one block.
	for _, n := range []int{1, 3, 4, 5, 511, 512, 1000} {
		ref, blk := newRNG(uint64(n)), newRNG(uint64(n))
		got := make([]float64, n)
		blk.irwinHall(got)
		for i := range got {
			var want float64
			for d := 0; d < 12; d++ {
				want += ref.float()
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("irwinHall n=%d: sum %d = %v, sequential %v", n, i, got[i], want)
			}
		}
		if blk.state != ref.state {
			t.Fatalf("irwinHall n=%d: state %#x, sequential %#x", n, blk.state, ref.state)
		}
	}
	for _, cfg := range []func() *config.GPU{config.GT240, config.GTX580} {
		ref, err := NewCardSession(cfg(), "noise")
		if err != nil {
			t.Fatal(err)
		}
		blk, err := NewCardSession(cfg(), "noise")
		if err != nil {
			t.Fatal(err)
		}
		perBlock := noiseBlock / len(blk.chain.rails)
		const alpha = 0.02
		refLevel, blkLevel := 20.0, 20.0
		target := 20.0
		for _, n := range []int{1, 3, 4, 5, perBlock - 1, perBlock, perBlock + 1, 10000} {
			target += 7.5 // each run starts mid-way through the previous step
			want := make([]float64, n)
			for i := range want {
				refLevel += (target - refLevel) * alpha
				want[i] = ref.chain.measure(refLevel)
			}
			got := make([]float64, n)
			blkLevel = blk.chain.measureRun(got, blkLevel, target, alpha)
			if math.Float64bits(blkLevel) != math.Float64bits(refLevel) {
				t.Fatalf("%s n=%d: final level %v, sequential %v", cfg().Name, n, blkLevel, refLevel)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: sample %d = %v, sequential %v", cfg().Name, n, i, got[i], want[i])
				}
			}
			if blk.chain.noise.state != ref.chain.noise.state {
				t.Fatalf("%s n=%d: noise state %#x, sequential %#x", cfg().Name, n, blk.chain.noise.state, ref.chain.noise.state)
			}
		}
	}
}
