package bench

import (
	"fmt"
	"sync"

	"gpusimpow/internal/kernel"
)

var vectorAdd = sync.OnceValues(buildVectorAdd)

// VectorAdd is the CUDA SDK vectorAdd sample: c[i] = a[i] + b[i].
func VectorAdd() (*Instance, error) { return instance(vectorAdd()) }

func buildVectorAdd() (*template, error) {
	const n = 8192
	const block = 256

	b := kernel.NewBuilder("vectorAdd", 12).Params(4)
	emitGlobalTidX(b, 0, 1, 2)
	b.LdParam(3, 3)
	emitGuardExit(b, 0, 3, 4)
	b.LdParam(5, 0)
	b.LdParam(6, 1)
	b.LdParam(7, 2)
	b.IShl(8, kernel.R(0), kernel.I(2))
	b.IAdd(5, kernel.R(5), kernel.R(8))
	b.IAdd(6, kernel.R(6), kernel.R(8))
	b.IAdd(7, kernel.R(7), kernel.R(8))
	b.Ld(kernel.SpaceGlobal, 9, kernel.R(5), 0)
	b.Ld(kernel.SpaceGlobal, 10, kernel.R(6), 0)
	b.FAdd(11, kernel.R(9), kernel.R(10))
	b.St(kernel.SpaceGlobal, kernel.R(7), kernel.R(11), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 1}
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = rnd.rangeF32(-10, 10)
		bv[i] = rnd.rangeF32(-10, 10)
	}
	aAddr := mem.AllocF32(av)
	bAddr := mem.AllocF32(bv)
	cAddr := mem.AllocZeroF32(n)

	t := newTemplate("vectorAdd", mem, []Run{{
		Name: "vectorAdd",
		Launch: &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: n / block, Y: 1},
			Block:  kernel.Dim{X: block, Y: 1},
			Params: []uint32{aAddr, bAddr, cAddr, n},
		},
	}})
	want := make([]float32, n)
	for i := range want {
		want[i] = av[i] + bv[i]
	}
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadF32Slice(cAddr, n)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("vectorAdd: c[%d] = %v, want %v", i, got[i], want[i])
			}
		}
		return nil
	}
	return t, nil
}

var scalarProd = sync.OnceValues(buildScalarProd)

// ScalarProd is the CUDA SDK scalarProd sample: dot products of vector
// pairs, one block per pair with a shared-memory tree reduction.
func ScalarProd() (*Instance, error) { return instance(scalarProd()) }

func buildScalarProd() (*template, error) {
	const pairs = 48
	const vlen = 2048
	const block = 128

	// Params: 0=a, 1=b, 2=out, 3=vlen.
	b := kernel.NewBuilder("scalarProd", 16).Params(4).SMem(block * 4)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.LdParam(2, 3) // vlen
	// Element base of this pair: pair*vlen.
	b.IMul(3, kernel.R(1), kernel.R(2))
	b.LdParam(4, 0)
	b.LdParam(5, 1)
	// acc = 0; for i = tid; i < vlen; i += block
	b.MovF(6, 0)
	b.Mov(7, kernel.R(0)) // i
	b.Label("loop")
	b.IAdd(8, kernel.R(3), kernel.R(7)) // element index
	b.IShl(8, kernel.R(8), kernel.I(2))
	b.IAdd(9, kernel.R(4), kernel.R(8))
	b.IAdd(10, kernel.R(5), kernel.R(8))
	b.Ld(kernel.SpaceGlobal, 11, kernel.R(9), 0)
	b.Ld(kernel.SpaceGlobal, 12, kernel.R(10), 0)
	b.FFma(6, kernel.R(11), kernel.R(12), kernel.R(6))
	b.SReg(13, kernel.SpecNTidX)
	b.IAdd(7, kernel.R(7), kernel.R(13))
	b.ISet(14, kernel.CmpLT, kernel.R(7), kernel.R(2))
	b.When(14).Bra("loop", "reduce")
	b.Label("reduce")
	// smem[tid] = acc
	b.IShl(13, kernel.R(0), kernel.I(2))
	b.St(kernel.SpaceShared, kernel.R(13), kernel.R(6), 0)
	b.Bar()
	// Tree reduction: stride = block/2 .. 1.
	b.MovI(14, block/2)
	b.Label("rloop")
	b.ISet(15, kernel.CmpLT, kernel.R(0), kernel.R(14))
	b.When(15).Bra("doadd", "skip")
	b.BraUni("skip")
	b.Label("doadd")
	b.IAdd(8, kernel.R(0), kernel.R(14))
	b.IShl(8, kernel.R(8), kernel.I(2))
	b.Ld(kernel.SpaceShared, 9, kernel.R(8), 0)
	b.Ld(kernel.SpaceShared, 10, kernel.R(13), 0)
	b.FAdd(9, kernel.R(9), kernel.R(10))
	b.St(kernel.SpaceShared, kernel.R(13), kernel.R(9), 0)
	b.Label("skip")
	b.Bar()
	b.IShr(14, kernel.R(14), kernel.I(1))
	b.ISet(15, kernel.CmpGT, kernel.R(14), kernel.I(0))
	b.When(15).Bra("rloop", "done")
	b.Label("done")
	// Thread 0 writes the result.
	b.ISet(15, kernel.CmpNE, kernel.R(0), kernel.I(0))
	b.When(15).Exit()
	b.Ld(kernel.SpaceShared, 9, kernel.U(0), 0)
	b.LdParam(10, 2)
	b.IShl(11, kernel.R(1), kernel.I(2))
	b.IAdd(10, kernel.R(10), kernel.R(11))
	b.St(kernel.SpaceGlobal, kernel.R(10), kernel.R(9), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 2}
	av := make([]float32, pairs*vlen)
	bv := make([]float32, pairs*vlen)
	for i := range av {
		av[i] = rnd.rangeF32(-1, 1)
		bv[i] = rnd.rangeF32(-1, 1)
	}
	aAddr := mem.AllocF32(av)
	bAddr := mem.AllocF32(bv)
	outAddr := mem.AllocZeroF32(pairs)

	t := newTemplate("scalarProd", mem, []Run{{
		Name: "scalarProd",
		Launch: &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: pairs, Y: 1},
			Block:  kernel.Dim{X: block, Y: 1},
			Params: []uint32{aAddr, bAddr, outAddr, vlen},
		},
	}})
	// Reference in sequential order; the kernel accumulates per lane, then
	// in tree order, so the check accepts a small tolerance.
	want := make([]float64, pairs)
	for p := range want {
		for i := 0; i < vlen; i++ {
			want[p] += float64(float64(av[p*vlen+i]) * float64(bv[p*vlen+i]))
		}
	}
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadF32Slice(outAddr, pairs)
		for p := range got {
			if !approxEq(got[p], float32(want[p]), 1e-3) {
				return fmt.Errorf("scalarProd: out[%d] = %v, want ~%v", p, got[p], want[p])
			}
		}
		return nil
	}
	return t, nil
}
