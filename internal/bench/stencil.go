package bench

import (
	"fmt"
	"slices"
	"sync"

	"gpusimpow/internal/kernel"
)

var (
	matrixMul  = sync.OnceValues(buildMatrixMul)
	hotspot    = sync.OnceValues(buildHotspot)
	pathfinder = sync.OnceValues(buildPathfinder)
)

// MatrixMul is the CUDA SDK tiled matrix multiplication: C = A x B with
// 16x16 shared-memory tiles (the canonical SMEM benchmark).
func MatrixMul() (*Instance, error) { return instance(matrixMul()) }

func buildMatrixMul() (*template, error) {
	const dim = 64 // square matrices
	const tile = 16

	// Params: 0=A, 1=B, 2=C.
	b := kernel.NewBuilder("matrixMul", 20).Params(3).SMem(2 * tile * tile * 4)
	b.SReg(0, kernel.SpecTidX) // tx
	b.SReg(1, kernel.SpecTidY) // ty
	b.SReg(2, kernel.SpecCtaX) // bx
	b.SReg(3, kernel.SpecCtaY) // by
	// row = by*tile + ty; col = bx*tile + tx
	b.IMul(4, kernel.R(3), kernel.I(tile))
	b.IAdd(4, kernel.R(4), kernel.R(1)) // row
	b.IMul(5, kernel.R(2), kernel.I(tile))
	b.IAdd(5, kernel.R(5), kernel.R(0)) // col
	// r6 = &A[row*dim + tx]; advances tile*4 bytes per step
	b.LdParam(6, 0)
	b.IMul(7, kernel.R(4), kernel.I(dim))
	b.IAdd(7, kernel.R(7), kernel.R(0))
	b.IShl(7, kernel.R(7), kernel.I(2))
	b.IAdd(6, kernel.R(6), kernel.R(7))
	// r7 = &B[ty*dim + col]; advances tile*dim*4 bytes per step
	b.LdParam(7, 1)
	b.IMul(8, kernel.R(1), kernel.I(dim))
	b.IAdd(8, kernel.R(8), kernel.R(5))
	b.IShl(8, kernel.R(8), kernel.I(2))
	b.IAdd(7, kernel.R(7), kernel.R(8))
	// r8 = shared slot (ty*tile+tx)*4; r9 = ty*tile*4; r10 = tx*4
	b.IMul(8, kernel.R(1), kernel.I(tile))
	b.IAdd(8, kernel.R(8), kernel.R(0))
	b.IShl(8, kernel.R(8), kernel.I(2))
	b.IMul(9, kernel.R(1), kernel.I(tile*4))
	b.IShl(10, kernel.R(0), kernel.I(2))
	b.MovF(11, 0) // acc
	b.MovI(12, 0) // t
	const bsOff = tile * tile * 4
	b.Label("tloop")
	b.Ld(kernel.SpaceGlobal, 13, kernel.R(6), 0)
	b.St(kernel.SpaceShared, kernel.R(8), kernel.R(13), 0) // As[ty][tx]
	b.Ld(kernel.SpaceGlobal, 13, kernel.R(7), 0)
	b.St(kernel.SpaceShared, kernel.R(8), kernel.R(13), bsOff) // Bs[ty][tx]
	b.Bar()
	for k := 0; k < tile; k++ {
		b.Ld(kernel.SpaceShared, 14, kernel.R(9), int32(k*4))             // As[ty][k]
		b.Ld(kernel.SpaceShared, 15, kernel.R(10), int32(bsOff+k*tile*4)) // Bs[k][tx]
		b.FFma(11, kernel.R(14), kernel.R(15), kernel.R(11))
	}
	b.Bar()
	b.IAdd(6, kernel.R(6), kernel.I(tile*4))
	b.IAdd(7, kernel.R(7), kernel.I(tile*dim*4))
	b.IAdd(12, kernel.R(12), kernel.I(1))
	b.ISet(16, kernel.CmpLT, kernel.R(12), kernel.I(dim/tile))
	b.When(16).Bra("tloop", "store")
	b.Label("store")
	b.LdParam(17, 2)
	b.IMul(18, kernel.R(4), kernel.I(dim))
	b.IAdd(18, kernel.R(18), kernel.R(5))
	b.IShl(18, kernel.R(18), kernel.I(2))
	b.IAdd(17, kernel.R(17), kernel.R(18))
	b.St(kernel.SpaceGlobal, kernel.R(17), kernel.R(11), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 3}
	a := make([]float32, dim*dim)
	bm := make([]float32, dim*dim)
	for i := range a {
		a[i] = rnd.rangeF32(-1, 1)
		bm[i] = rnd.rangeF32(-1, 1)
	}
	aAddr := mem.AllocF32(a)
	bAddr := mem.AllocF32(bm)
	cAddr := mem.AllocZeroF32(dim * dim)

	t := newTemplate("matrixMul", mem, []Run{{
		Name: "matrixMul",
		Launch: &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: dim / tile, Y: dim / tile},
			Block:  kernel.Dim{X: tile, Y: tile},
			Params: []uint32{aAddr, bAddr, cAddr},
		},
	}})
	want := make([]float64, dim*dim)
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			for k := 0; k < dim; k++ {
				want[r*dim+c] += float64(float64(a[r*dim+k]) * float64(bm[k*dim+c]))
			}
		}
	}
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadF32Slice(cAddr, dim*dim)
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				if w := want[r*dim+c]; !approxEq(got[r*dim+c], float32(w), 1e-3) {
					return fmt.Errorf("matrixMul: C[%d][%d] = %v, want ~%v", r, c, got[r*dim+c], w)
				}
			}
		}
		return nil
	}
	return t, nil
}

// Hotspot is the Rodinia processor-temperature stencil: each step relaxes
// the temperature grid towards its neighbours plus the local power density.
func Hotspot() (*Instance, error) { return instance(hotspot()) }

func buildHotspot() (*template, error) {
	const dim = 64
	const tile = 16
	const steps = 2
	const kc = float32(0.15) // diffusion coefficient
	const pc = float32(0.10) // power coupling

	// Params: 0=Tin, 1=Tout, 2=P.
	b := kernel.NewBuilder("hotspot", 22).Params(3)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecTidY)
	b.SReg(2, kernel.SpecCtaX)
	b.SReg(3, kernel.SpecCtaY)
	b.IMul(4, kernel.R(3), kernel.I(tile))
	b.IAdd(4, kernel.R(4), kernel.R(1)) // row
	b.IMul(5, kernel.R(2), kernel.I(tile))
	b.IAdd(5, kernel.R(5), kernel.R(0)) // col
	// Clamped neighbour indices.
	b.IAdd(6, kernel.R(4), kernel.I(-1))
	b.IMax(6, kernel.R(6), kernel.I(0)) // up row
	b.IAdd(7, kernel.R(4), kernel.I(1))
	b.IMin(7, kernel.R(7), kernel.I(dim-1)) // down row
	b.IAdd(8, kernel.R(5), kernel.I(-1))
	b.IMax(8, kernel.R(8), kernel.I(0)) // left col
	b.IAdd(9, kernel.R(5), kernel.I(1))
	b.IMin(9, kernel.R(9), kernel.I(dim-1)) // right col
	b.LdParam(10, 0)
	// addr(r, c) helper: base + (r*dim+c)*4
	addr := func(dst, r, c int) {
		b.IMul(dst, kernel.R(r), kernel.I(dim))
		b.IAdd(dst, kernel.R(dst), kernel.R(c))
		b.IShl(dst, kernel.R(dst), kernel.I(2))
		b.IAdd(dst, kernel.R(dst), kernel.R(10))
	}
	addr(11, 4, 5)
	b.Ld(kernel.SpaceGlobal, 16, kernel.R(11), 0) // centre
	addr(12, 6, 5)
	b.Ld(kernel.SpaceGlobal, 17, kernel.R(12), 0) // up
	addr(12, 7, 5)
	b.Ld(kernel.SpaceGlobal, 18, kernel.R(12), 0) // down
	addr(12, 4, 8)
	b.Ld(kernel.SpaceGlobal, 19, kernel.R(12), 0) // left
	addr(12, 4, 9)
	b.Ld(kernel.SpaceGlobal, 20, kernel.R(12), 0) // right
	// delta = up+down+left+right - 4*centre
	b.FAdd(17, kernel.R(17), kernel.R(18))
	b.FAdd(17, kernel.R(17), kernel.R(19))
	b.FAdd(17, kernel.R(17), kernel.R(20))
	b.FMul(18, kernel.R(16), kernel.F(-4))
	b.FAdd(17, kernel.R(17), kernel.R(18))
	// P term.
	b.LdParam(12, 2)
	b.IMul(13, kernel.R(4), kernel.I(dim))
	b.IAdd(13, kernel.R(13), kernel.R(5))
	b.IShl(13, kernel.R(13), kernel.I(2))
	b.IAdd(14, kernel.R(12), kernel.R(13))
	b.Ld(kernel.SpaceGlobal, 15, kernel.R(14), 0)
	// Tnew = T + kc*delta + pc*P
	b.FFma(16, kernel.R(17), kernel.F(kc), kernel.R(16))
	b.FFma(16, kernel.R(15), kernel.F(pc), kernel.R(16))
	b.LdParam(12, 1)
	b.IAdd(14, kernel.R(12), kernel.R(13))
	b.St(kernel.SpaceGlobal, kernel.R(14), kernel.R(16), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 4}
	temp := make([]float32, dim*dim)
	pow := make([]float32, dim*dim)
	for i := range temp {
		temp[i] = rnd.rangeF32(40, 90)
		pow[i] = rnd.rangeF32(0, 2)
	}
	t0 := mem.AllocF32(temp)
	t1 := mem.AllocZeroF32(dim * dim)
	pAddr := mem.AllocF32(pow)

	var runs []Run
	bufs := [2]uint32{t0, t1}
	for s := 0; s < steps; s++ {
		runs = append(runs, Run{
			Name: "hotspot",
			Launch: &kernel.Launch{
				Prog:   prog,
				Grid:   kernel.Dim{X: dim / tile, Y: dim / tile},
				Block:  kernel.Dim{X: tile, Y: tile},
				Params: []uint32{bufs[s%2], bufs[(s+1)%2], pAddr},
			},
			// Repeatable for measurement: the paper modified short-kernel
			// benchmarks "to execute the same kernels 100 times".
		})
	}

	t := newTemplate("hotspot", mem, runs)
	ref := make([]float32, dim*dim)
	cur := slices.Clone(temp)
	for s := 0; s < steps; s++ {
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				up := cur[clamp(r-1, 0, dim-1)*dim+c]
				dn := cur[clamp(r+1, 0, dim-1)*dim+c]
				lf := cur[r*dim+clamp(c-1, 0, dim-1)]
				rt := cur[r*dim+clamp(c+1, 0, dim-1)]
				t := cur[r*dim+c]
				delta := up + dn + lf + rt + float32(t*-4)
				ref[r*dim+c] = t + float32(delta*kc) + float32(pow[r*dim+c]*pc)
			}
		}
		cur, ref = ref, cur
	}
	out := bufs[steps%2]
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadF32Slice(out, dim*dim)
		for i := range got {
			if !approxEq(got[i], cur[i], 1e-4) {
				return fmt.Errorf("hotspot: T[%d] = %v, want ~%v", i, got[i], cur[i])
			}
		}
		return nil
	}
	return t, nil
}

// Pathfinder is the Rodinia dynamic-programming path search: each row keeps
// the cheapest path cost to each column, relaxed against the three
// neighbours of the previous row, with rows iterated inside the kernel using
// block barriers and a ping-pong shared-memory buffer.
func Pathfinder() (*Instance, error) { return instance(pathfinder()) }

func buildPathfinder() (*template, error) {
	const cols = 256
	const rows = 48

	// Params: 0=wall, 1=out.
	b := kernel.NewBuilder("pathfinder", 20).Params(2).SMem(2 * cols * 4)
	b.SReg(0, kernel.SpecTidX) // j
	b.IShl(1, kernel.R(0), kernel.I(2))
	// Clamped neighbour byte offsets.
	b.IAdd(2, kernel.R(0), kernel.I(-1))
	b.IMax(2, kernel.R(2), kernel.I(0))
	b.IShl(2, kernel.R(2), kernel.I(2))
	b.IAdd(3, kernel.R(0), kernel.I(1))
	b.IMin(3, kernel.R(3), kernel.I(cols-1))
	b.IShl(3, kernel.R(3), kernel.I(2))
	// Load row 0 of the wall into shared buffer 0.
	b.LdParam(4, 0)
	b.IAdd(5, kernel.R(4), kernel.R(1))
	b.Ld(kernel.SpaceGlobal, 6, kernel.R(5), 0)
	b.St(kernel.SpaceShared, kernel.R(1), kernel.R(6), 0)
	b.Bar()
	b.MovI(7, 1) // r
	const buf1 = cols * 4
	b.Label("rowloop")
	// srcOff = ((r+1)&1)*buf1 ; dstOff = (r&1)*buf1
	b.IAdd(8, kernel.R(7), kernel.I(1))
	b.IAnd(8, kernel.R(8), kernel.I(1))
	b.IMul(8, kernel.R(8), kernel.I(buf1)) // srcOff
	b.IAnd(9, kernel.R(7), kernel.I(1))
	b.IMul(9, kernel.R(9), kernel.I(buf1)) // dstOff
	// min3 of previous row.
	b.IAdd(10, kernel.R(8), kernel.R(2))
	b.Ld(kernel.SpaceShared, 11, kernel.R(10), 0)
	b.IAdd(10, kernel.R(8), kernel.R(1))
	b.Ld(kernel.SpaceShared, 12, kernel.R(10), 0)
	b.IAdd(10, kernel.R(8), kernel.R(3))
	b.Ld(kernel.SpaceShared, 13, kernel.R(10), 0)
	b.IMin(11, kernel.R(11), kernel.R(12))
	b.IMin(11, kernel.R(11), kernel.R(13))
	// wall[r*cols + j]
	b.IMul(12, kernel.R(7), kernel.I(cols))
	b.IAdd(12, kernel.R(12), kernel.R(0))
	b.IShl(12, kernel.R(12), kernel.I(2))
	b.IAdd(12, kernel.R(4), kernel.R(12))
	b.Ld(kernel.SpaceGlobal, 13, kernel.R(12), 0)
	b.IAdd(11, kernel.R(11), kernel.R(13))
	b.IAdd(10, kernel.R(9), kernel.R(1))
	b.St(kernel.SpaceShared, kernel.R(10), kernel.R(11), 0)
	b.Bar()
	b.IAdd(7, kernel.R(7), kernel.I(1))
	b.ISet(14, kernel.CmpLT, kernel.R(7), kernel.I(rows))
	b.When(14).Bra("rowloop", "write")
	b.Label("write")
	// Final row lives in buffer ((rows-1)&1).
	b.MovI(8, int32(((rows-1)&1)*buf1))
	b.IAdd(8, kernel.R(8), kernel.R(1))
	b.Ld(kernel.SpaceShared, 9, kernel.R(8), 0)
	b.LdParam(10, 1)
	b.IAdd(10, kernel.R(10), kernel.R(1))
	b.St(kernel.SpaceGlobal, kernel.R(10), kernel.R(9), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 5}
	wall := make([]int32, rows*cols)
	for i := range wall {
		wall[i] = int32(rnd.intn(10))
	}
	wAddr := mem.AllocI32(wall)
	outAddr := mem.Alloc(cols * 4)

	t := newTemplate("pathfinder", mem, []Run{{
		Name: "pathfinder",
		Launch: &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: 1, Y: 1},
			Block:  kernel.Dim{X: cols, Y: 1},
			Params: []uint32{wAddr, outAddr},
		},
	}})
	prev := make([]int32, cols)
	cur := make([]int32, cols)
	copy(prev, wall)
	for r := 1; r < rows; r++ {
		for j := 0; j < cols; j++ {
			m := prev[clamp(j-1, 0, cols-1)]
			if prev[j] < m {
				m = prev[j]
			}
			if v := prev[clamp(j+1, 0, cols-1)]; v < m {
				m = v
			}
			cur[j] = wall[r*cols+j] + m
		}
		prev, cur = cur, prev
	}
	want := prev
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadI32Slice(outAddr, cols)
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("pathfinder: out[%d] = %d, want %d", j, got[j], want[j])
			}
		}
		return nil
	}
	return t, nil
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi int) int {
	return min(max(v, lo), hi)
}
