package hw

// rng is a splitmix64 deterministic generator. The virtual hardware must be
// perfectly reproducible (the same card always has the same silicon), so all
// perturbations and noise derive from seeds, never from global randomness.
type rng struct{ state uint64 }

// gamma is splitmix64's state increment: draw k after state s is
// mix(s + (k+1)*gamma), so any draw can be computed without the ones
// before it.
const gamma = 0x9E3779B97F4A7C15

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// seedFromString hashes a name (FNV-1a) into a seed.
func seedFromString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a draw to a uniform value in [0, 1).
func unit(z uint64) float64 { return float64(z>>11) / (1 << 53) }

func (r *rng) next() uint64 {
	r.state += gamma
	return mix(r.state)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return unit(r.next()) }

// uniform returns a uniform value in [lo, hi).
func (r *rng) uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.float()
}

// irwinHall fills dst with len(dst) consecutive Irwin-Hall sums of 12
// uniforms (the DAQ noise: (sum-6)*sigma is approximately normal) and
// advances the stream past their draws. Each sum adds its own 12 draws in
// draw order, so it is bit-identical to drawing them one by one; four sums
// accumulate at once to overlap their mixing.
func (r *rng) irwinHall(dst []float64) {
	base := r.state
	var k uint64 // draws consumed
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		var a0, a1, a2, a3 float64
		for d := k + 1; d <= k+12; d++ {
			a0 += unit(mix(base + d*gamma))
			a1 += unit(mix(base + (d+12)*gamma))
			a2 += unit(mix(base + (d+24)*gamma))
			a3 += unit(mix(base + (d+36)*gamma))
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
		k += 48
	}
	for ; j < len(dst); j++ {
		var a float64
		for d := k + 1; d <= k+12; d++ {
			a += unit(mix(base + d*gamma))
		}
		dst[j] = a
		k += 12
	}
	r.state = base + k*gamma
}
