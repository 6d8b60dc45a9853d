package bench

import (
	"fmt"
	"math"
	"sync"

	"gpusimpow/internal/kernel"
)

// Black-Scholes constants (CUDA SDK values).
const (
	bsRiskFree   = float32(0.02)
	bsVolatility = float32(0.30)
	// Cumulative normal distribution polynomial (Abramowitz & Stegun).
	bsA1 = float32(0.31938153)
	bsA2 = float32(-0.356563782)
	bsA3 = float32(1.781477937)
	bsA4 = float32(-1.821255978)
	bsA5 = float32(1.330274429)

	ln2     = float32(0.6931471805599453)
	log2e   = float32(1.4426950408889634)
	rsqt2pi = float32(0.3989422804014327)
)

// emitCND emits the cumulative-normal-distribution of register d into
// register out, clobbering t1..t4 and p.
func emitCND(b *kernel.Builder, d, out, t1, t2, t3, p int) {
	b.FAbs(t1, kernel.R(d)) // |d|
	// K = 1/(1 + 0.2316419 |d|)
	b.FFma(t1, kernel.R(t1), kernel.F(0.2316419), kernel.F(1))
	b.Rcp(t1, kernel.R(t1))
	// Horner: poly = ((((a5 K + a4) K + a3) K + a2) K + a1) K
	b.MovF(t2, bsA5)
	b.FFma(t2, kernel.R(t2), kernel.R(t1), kernel.F(bsA4))
	b.FFma(t2, kernel.R(t2), kernel.R(t1), kernel.F(bsA3))
	b.FFma(t2, kernel.R(t2), kernel.R(t1), kernel.F(bsA2))
	b.FFma(t2, kernel.R(t2), kernel.R(t1), kernel.F(bsA1))
	b.FMul(t2, kernel.R(t2), kernel.R(t1))
	// pdf = rsqt2pi * 2^(-d^2/2 * log2e)
	b.FMul(t3, kernel.R(d), kernel.R(d))
	b.FMul(t3, kernel.R(t3), kernel.F(-0.5*log2e))
	b.Ex2(t3, kernel.R(t3))
	b.FMul(t3, kernel.R(t3), kernel.F(rsqt2pi))
	// cnd = pdf * poly; mirror for d > 0.
	b.FMul(out, kernel.R(t3), kernel.R(t2))
	b.FSet(p, kernel.CmpGT, kernel.R(d), kernel.F(0))
	b.FSub(t3, kernel.F(1), kernel.R(out))
	b.ISel(out, kernel.R(p), kernel.R(t3), kernel.R(out))
}

// cndRef mirrors emitCND on the host in float32 steps.
func cndRef(d float32) float32 {
	k := float32(1) / (1 + 0.2316419*float32(math.Abs(float64(d))))
	poly := ((((bsA5*k+bsA4)*k+bsA3)*k+bsA2)*k + bsA1) * k
	pdf := rsqt2pi * float32(math.Exp2(float64(-0.5*log2e*d*d)))
	cnd := pdf * poly
	if d > 0 {
		cnd = 1 - cnd
	}
	return cnd
}

var blackScholes = sync.OnceValues(buildBlackScholes)

// BlackScholes is the CUDA SDK option-pricing benchmark: an SFU-heavy
// kernel evaluating the Black-Scholes PDE closed form per option.
func BlackScholes() (*Instance, error) { return instance(blackScholes()) }

func buildBlackScholes() (*template, error) {
	const n = 4096
	const block = 128

	// Params: 0=S, 1=X, 2=T, 3=call, 4=put, 5=n.
	b := kernel.NewBuilder("BlackScholes", 28).Params(6)
	emitGlobalTidX(b, 0, 1, 2)
	b.LdParam(3, 5)
	emitGuardExit(b, 0, 3, 4)
	b.IShl(4, kernel.R(0), kernel.I(2)) // byte offset
	b.LdParam(1, 0)
	b.IAdd(1, kernel.R(1), kernel.R(4))
	b.Ld(kernel.SpaceGlobal, 5, kernel.R(1), 0) // S
	b.LdParam(1, 1)
	b.IAdd(1, kernel.R(1), kernel.R(4))
	b.Ld(kernel.SpaceGlobal, 6, kernel.R(1), 0) // X
	b.LdParam(1, 2)
	b.IAdd(1, kernel.R(1), kernel.R(4))
	b.Ld(kernel.SpaceGlobal, 7, kernel.R(1), 0) // T

	// sqrtT, V*sqrtT and its reciprocal.
	b.Sqrt(8, kernel.R(7))
	b.FMul(13, kernel.R(8), kernel.F(bsVolatility)) // V sqrtT
	b.Rcp(12, kernel.R(13))
	// ln(S/X) = lg2(S * (1/X)) * ln2
	b.Rcp(9, kernel.R(6))
	b.FMul(9, kernel.R(5), kernel.R(9))
	b.Lg2(9, kernel.R(9))
	b.FMul(9, kernel.R(9), kernel.F(ln2))
	// (R + V^2/2) T
	b.FMul(10, kernel.R(7), kernel.F(bsRiskFree+0.5*bsVolatility*bsVolatility))
	// d1, d2
	b.FAdd(11, kernel.R(9), kernel.R(10))
	b.FMul(11, kernel.R(11), kernel.R(12)) // d1
	b.FSub(14, kernel.R(11), kernel.R(13)) // d2

	emitCND(b, 11, 15, 17, 18, 19, 20) // cnd1 -> r15
	emitCND(b, 14, 16, 17, 18, 19, 20) // cnd2 -> r16

	// expRT = 2^(-R T log2e); XexpRT = X * expRT
	b.FMul(21, kernel.R(7), kernel.F(-bsRiskFree*log2e))
	b.Ex2(21, kernel.R(21))
	b.FMul(21, kernel.R(6), kernel.R(21))
	// call = S cnd1 - XexpRT cnd2
	b.FMul(22, kernel.R(5), kernel.R(15))
	b.FNeg(23, kernel.R(21))
	b.FFma(22, kernel.R(23), kernel.R(16), kernel.R(22))
	// put = XexpRT (1-cnd2) - S (1-cnd1)
	b.FSub(24, kernel.F(1), kernel.R(16))
	b.FMul(24, kernel.R(21), kernel.R(24))
	b.FSub(25, kernel.F(1), kernel.R(15))
	b.FMul(25, kernel.R(5), kernel.R(25))
	b.FSub(24, kernel.R(24), kernel.R(25))

	b.LdParam(1, 3)
	b.IAdd(1, kernel.R(1), kernel.R(4))
	b.St(kernel.SpaceGlobal, kernel.R(1), kernel.R(22), 0)
	b.LdParam(1, 4)
	b.IAdd(1, kernel.R(1), kernel.R(4))
	b.St(kernel.SpaceGlobal, kernel.R(1), kernel.R(24), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 6}
	sv := make([]float32, n)
	xv := make([]float32, n)
	tv := make([]float32, n)
	for i := range sv {
		sv[i] = rnd.rangeF32(5, 30)
		xv[i] = rnd.rangeF32(1, 100)
		tv[i] = rnd.rangeF32(0.25, 10)
	}
	sAddr := mem.AllocF32(sv)
	xAddr := mem.AllocF32(xv)
	tAddr := mem.AllocF32(tv)
	callAddr := mem.AllocZeroF32(n)
	putAddr := mem.AllocZeroF32(n)

	t := newTemplate("BlackScholes", mem, []Run{{
		Name: "BlackScholes",
		Launch: &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: n / block, Y: 1},
			Block:  kernel.Dim{X: block, Y: 1},
			Params: []uint32{sAddr, xAddr, tAddr, callAddr, putAddr, n},
		},
	}})
	wantCall := make([]float32, n)
	wantPut := make([]float32, n)
	for i := 0; i < n; i++ {
		s, x, tt := sv[i], xv[i], tv[i]
		sqrtT := float32(math.Sqrt(float64(tt)))
		d1 := (float32(math.Log(float64(s/x))) + (bsRiskFree+0.5*bsVolatility*bsVolatility)*tt) / (bsVolatility * sqrtT)
		d2 := d1 - bsVolatility*sqrtT
		expRT := x * float32(math.Exp(float64(-bsRiskFree*tt)))
		wantCall[i] = s*cndRef(d1) - expRT*cndRef(d2)
		wantPut[i] = expRT*(1-cndRef(d2)) - s*(1-cndRef(d1))
	}
	t.check = func(mem *kernel.GlobalMem) error {
		call := mem.ReadF32Slice(callAddr, n)
		put := mem.ReadF32Slice(putAddr, n)
		for i := 0; i < n; i++ {
			if !approxEq(call[i], wantCall[i], 5e-3) {
				in := func(a uint32) float32 { return math.Float32frombits(t.input.Read32(a + uint32(4*i))) }
				return fmt.Errorf("BlackScholes: call[%d] = %v, want ~%v (S=%v X=%v T=%v)", i, call[i], wantCall[i], in(sAddr), in(xAddr), in(tAddr))
			}
			if !approxEq(put[i], wantPut[i], 5e-3) {
				return fmt.Errorf("BlackScholes: put[%d] = %v, want ~%v", i, put[i], wantPut[i])
			}
		}
		return nil
	}
	return t, nil
}
