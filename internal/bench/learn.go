package bench

import (
	"fmt"
	"math"
	"sync"

	"gpusimpow/internal/kernel"
)

var (
	backprop  = sync.OnceValues(buildBackprop)
	kmeans    = sync.OnceValues(buildKMeans)
	heartwall = sync.OnceValues(buildHeartwall)
)

// Backprop is the Rodinia multi-layer perceptron training benchmark:
// kernel 1 (backprop1) computes the hidden layer forward pass with a
// shared-memory reduction per hidden unit; kernel 2 (backprop2) adjusts the
// input-to-hidden weights.
func Backprop() (*Instance, error) { return instance(backprop()) }

func buildBackprop() (*template, error) {
	const nIn = 512
	const nHid = 16
	const block = 128
	const lr = float32(0.3)

	// --- Kernel 1: hidden[j] = sigmoid(sum_i in[i] * w[i*nHid+j]) ---
	// One block per hidden unit. Params: 0=in, 1=w, 2=hidden, 3=nIn.
	b1 := kernel.NewBuilder("backprop1", 18).Params(4).SMem(block * 4)
	b1.SReg(0, kernel.SpecTidX)
	b1.SReg(1, kernel.SpecCtaX) // j
	b1.LdParam(2, 3)            // nIn
	b1.LdParam(3, 0)
	b1.LdParam(4, 1)
	b1.MovF(5, 0)          // acc
	b1.Mov(6, kernel.R(0)) // i
	b1.Label("loop")
	b1.IShl(7, kernel.R(6), kernel.I(2))
	b1.IAdd(7, kernel.R(3), kernel.R(7))
	b1.Ld(kernel.SpaceGlobal, 8, kernel.R(7), 0) // in[i]
	b1.IMul(9, kernel.R(6), kernel.I(nHid))
	b1.IAdd(9, kernel.R(9), kernel.R(1))
	b1.IShl(9, kernel.R(9), kernel.I(2))
	b1.IAdd(9, kernel.R(4), kernel.R(9))
	b1.Ld(kernel.SpaceGlobal, 10, kernel.R(9), 0) // w[i][j]
	b1.FFma(5, kernel.R(8), kernel.R(10), kernel.R(5))
	b1.IAdd(6, kernel.R(6), kernel.I(block))
	b1.ISet(11, kernel.CmpLT, kernel.R(6), kernel.R(2))
	b1.When(11).Bra("loop", "reduce")
	b1.Label("reduce")
	b1.IShl(12, kernel.R(0), kernel.I(2))
	b1.St(kernel.SpaceShared, kernel.R(12), kernel.R(5), 0)
	b1.Bar()
	for stride := block / 2; stride >= 1; stride /= 2 {
		b1.ISet(13, kernel.CmpGE, kernel.R(0), kernel.I(int32(stride)))
		b1.When(13).Bra("skip"+fmt.Sprint(stride), "skip"+fmt.Sprint(stride))
		b1.Ld(kernel.SpaceShared, 14, kernel.R(12), int32(4*stride))
		b1.Ld(kernel.SpaceShared, 15, kernel.R(12), 0)
		b1.FAdd(14, kernel.R(14), kernel.R(15))
		b1.St(kernel.SpaceShared, kernel.R(12), kernel.R(14), 0)
		b1.Label("skip" + fmt.Sprint(stride))
		b1.Bar()
	}
	// Thread 0: hidden[j] = 1/(1 + 2^(-sum*log2e))
	b1.ISet(13, kernel.CmpNE, kernel.R(0), kernel.I(0))
	b1.When(13).Exit()
	b1.Ld(kernel.SpaceShared, 14, kernel.U(0), 0)
	b1.FMul(14, kernel.R(14), kernel.F(-log2e))
	b1.Ex2(14, kernel.R(14))
	b1.FAdd(14, kernel.R(14), kernel.F(1))
	b1.Rcp(14, kernel.R(14))
	b1.LdParam(15, 2)
	b1.IShl(16, kernel.R(1), kernel.I(2))
	b1.IAdd(15, kernel.R(15), kernel.R(16))
	b1.St(kernel.SpaceGlobal, kernel.R(15), kernel.R(14), 0)
	b1.Exit()
	prog1, err := b1.Build()
	if err != nil {
		return nil, err
	}

	// --- Kernel 2: w[i][j] += lr * delta[j] * in[i] ---
	// Params: 0=w, 1=delta, 2=in, 3=total(nIn*nHid).
	b2 := kernel.NewBuilder("backprop2", 16).Params(4)
	emitGlobalTidX(b2, 0, 1, 2)
	b2.LdParam(3, 3)
	emitGuardExit(b2, 0, 3, 4)
	// i = idx / nHid, j = idx % nHid (nHid = 16).
	b2.IShr(5, kernel.R(0), kernel.I(4))
	b2.IAnd(6, kernel.R(0), kernel.I(15))
	b2.LdParam(7, 1)
	b2.IShl(8, kernel.R(6), kernel.I(2))
	b2.IAdd(7, kernel.R(7), kernel.R(8))
	b2.Ld(kernel.SpaceGlobal, 9, kernel.R(7), 0) // delta[j]
	b2.LdParam(10, 2)
	b2.IShl(11, kernel.R(5), kernel.I(2))
	b2.IAdd(10, kernel.R(10), kernel.R(11))
	b2.Ld(kernel.SpaceGlobal, 12, kernel.R(10), 0) // in[i]
	b2.FMul(9, kernel.R(9), kernel.R(12))
	b2.FMul(9, kernel.R(9), kernel.F(lr))
	b2.LdParam(13, 0)
	b2.IShl(14, kernel.R(0), kernel.I(2))
	b2.IAdd(13, kernel.R(13), kernel.R(14))
	b2.Ld(kernel.SpaceGlobal, 15, kernel.R(13), 0)
	b2.FAdd(15, kernel.R(15), kernel.R(9))
	b2.St(kernel.SpaceGlobal, kernel.R(13), kernel.R(15), 0)
	b2.Exit()
	prog2, err := b2.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 7}
	in := make([]float32, nIn)
	w := make([]float32, nIn*nHid)
	delta := make([]float32, nHid)
	for i := range in {
		in[i] = rnd.rangeF32(0, 1)
	}
	for i := range w {
		w[i] = rnd.rangeF32(-0.5, 0.5)
	}
	for i := range delta {
		delta[i] = rnd.rangeF32(-0.2, 0.2)
	}
	inAddr := mem.AllocF32(in)
	wAddr := mem.AllocF32(w)
	hidAddr := mem.AllocZeroF32(nHid)
	deltaAddr := mem.AllocF32(delta)

	t := newTemplate("backprop", mem, []Run{
		{
			Name: "backprop1",
			Launch: &kernel.Launch{
				Prog:   prog1,
				Grid:   kernel.Dim{X: nHid, Y: 1},
				Block:  kernel.Dim{X: block, Y: 1},
				Params: []uint32{inAddr, wAddr, hidAddr, nIn},
			},
		},
		{
			Name: "backprop2",
			Launch: &kernel.Launch{
				Prog:   prog2,
				Grid:   kernel.Dim{X: nIn * nHid / 256, Y: 1},
				Block:  kernel.Dim{X: 256, Y: 1},
				Params: []uint32{wAddr, deltaAddr, inAddr, nIn * nHid},
			},
		},
	})
	wantHid := make([]float64, nHid)
	for j := range wantHid {
		var sum float64
		for i := 0; i < nIn; i++ {
			sum += float64(float64(in[i]) * float64(w[i*nHid+j]))
		}
		wantHid[j] = 1 / (1 + math.Exp(-sum))
	}
	wantW := make([]float32, nIn*nHid)
	for idx := range wantW {
		i, j := idx/nHid, idx%nHid
		wantW[idx] = w[idx] + float32(lr*delta[j]*in[i])
	}
	t.check = func(mem *kernel.GlobalMem) error {
		hid := mem.ReadF32Slice(hidAddr, nHid)
		for j, want := range wantHid {
			if !approxEq(hid[j], float32(want), 2e-3) {
				return fmt.Errorf("backprop1: hidden[%d] = %v, want ~%v", j, hid[j], want)
			}
		}
		wGot := mem.ReadF32Slice(wAddr, nIn*nHid)
		for idx, want := range wantW {
			if !approxEq(wGot[idx], want, 1e-4) {
				return fmt.Errorf("backprop2: w[%d] = %v, want ~%v", idx, wGot[idx], want)
			}
		}
		return nil
	}
	return t, nil
}

// KMeans is the Rodinia k-means clustering benchmark: kernel 1 (kmeans1)
// transposes the point array into feature-major layout (Rodinia's
// invert_mapping); kernel 2 (kmeans2) assigns each point to its nearest
// centre, with the centres broadcast from constant memory.
func KMeans() (*Instance, error) { return instance(kmeans()) }

func buildKMeans() (*template, error) {
	const n = 2048
	const d = 8
	const k = 5

	// --- Kernel 1: transpose points [n][d] -> features [d][n] ---
	// Params: 0=in, 1=out, 2=n.
	b1 := kernel.NewBuilder("kmeans1", 14).Params(3)
	emitGlobalTidX(b1, 0, 1, 2)
	b1.LdParam(3, 2)
	emitGuardExit(b1, 0, 3, 4)
	b1.LdParam(5, 0)
	b1.LdParam(6, 1)
	for f := 0; f < d; f++ {
		// in[i*d + f] -> out[f*n + i]
		b1.IMul(7, kernel.R(0), kernel.I(d))
		b1.IAdd(7, kernel.R(7), kernel.I(int32(f)))
		b1.IShl(7, kernel.R(7), kernel.I(2))
		b1.IAdd(7, kernel.R(5), kernel.R(7))
		b1.Ld(kernel.SpaceGlobal, 8, kernel.R(7), 0)
		b1.IAdd(9, kernel.R(0), kernel.I(int32(f*n)))
		b1.IShl(9, kernel.R(9), kernel.I(2))
		b1.IAdd(9, kernel.R(6), kernel.R(9))
		b1.St(kernel.SpaceGlobal, kernel.R(9), kernel.R(8), 0)
	}
	b1.Exit()
	prog1, err := b1.Build()
	if err != nil {
		return nil, err
	}

	// --- Kernel 2: membership[i] = argmin_c dist(point_i, centre_c) ---
	// Feature-major point access (coalesced); centres in constant memory.
	// Params: 0=features, 1=membership, 2=n.
	b2 := kernel.NewBuilder("kmeans2", 18).Params(3)
	emitGlobalTidX(b2, 0, 1, 2)
	b2.LdParam(3, 2)
	emitGuardExit(b2, 0, 3, 4)
	b2.LdParam(5, 0)
	b2.MovF(6, float32(math.Inf(1))) // best distance
	b2.MovI(7, 0)                    // best cluster
	for c := 0; c < k; c++ {
		b2.MovF(8, 0) // dist
		for f := 0; f < d; f++ {
			b2.IAdd(9, kernel.R(0), kernel.I(int32(f*n)))
			b2.IShl(9, kernel.R(9), kernel.I(2))
			b2.IAdd(9, kernel.R(5), kernel.R(9))
			b2.Ld(kernel.SpaceGlobal, 10, kernel.R(9), 0)
			b2.Ld(kernel.SpaceConst, 11, kernel.U(uint32((c*d+f)*4)), 0)
			b2.FSub(10, kernel.R(10), kernel.R(11))
			b2.FFma(8, kernel.R(10), kernel.R(10), kernel.R(8))
		}
		b2.FSet(12, kernel.CmpLT, kernel.R(8), kernel.R(6))
		b2.ISel(7, kernel.R(12), kernel.I(int32(c)), kernel.R(7))
		// best = min(best, dist)
		b2.FMin(6, kernel.R(6), kernel.R(8))
	}
	b2.LdParam(13, 1)
	b2.IShl(14, kernel.R(0), kernel.I(2))
	b2.IAdd(13, kernel.R(13), kernel.R(14))
	b2.St(kernel.SpaceGlobal, kernel.R(13), kernel.R(7), 0)
	b2.Exit()
	prog2, err := b2.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 8}
	points := make([]float32, n*d)
	for i := range points {
		points[i] = rnd.rangeF32(0, 10)
	}
	centres := make([]float32, k*d)
	for i := range centres {
		centres[i] = rnd.rangeF32(0, 10)
	}
	ptAddr := mem.AllocF32(points)
	featAddr := mem.AllocZeroF32(n * d)
	memAddr := mem.Alloc(n * 4)
	cmem := kernel.NewConstMem(k * d * 4)
	cmem.WriteF32Slice(0, centres)

	t := newTemplate("kmeans", mem, []Run{
		{
			Name: "kmeans1",
			Launch: &kernel.Launch{
				Prog:   prog1,
				Grid:   kernel.Dim{X: n / 256, Y: 1},
				Block:  kernel.Dim{X: 256, Y: 1},
				Params: []uint32{ptAddr, featAddr, n},
			},
			CMem: cmem,
		},
		{
			Name: "kmeans2",
			Launch: &kernel.Launch{
				Prog:   prog2,
				Grid:   kernel.Dim{X: n / 256, Y: 1},
				Block:  kernel.Dim{X: 256, Y: 1},
				Params: []uint32{featAddr, memAddr, n},
			},
			CMem: cmem,
		},
	})
	want := make([]int32, n)
	for i := range want {
		best := float32(math.Inf(1))
		for c := 0; c < k; c++ {
			var dist float32
			for f := 0; f < d; f++ {
				diff := points[i*d+f] - centres[c*d+f]
				dist += float32(diff * diff)
			}
			if dist < best {
				best, want[i] = dist, int32(c)
			}
		}
	}
	t.check = func(mem *kernel.GlobalMem) error {
		// kmeans1's reference is the input itself, transposed.
		feat := mem.ReadF32Slice(featAddr, n*d)
		for i := 0; i < n; i++ {
			for f := 0; f < d; f++ {
				if feat[f*n+i] != math.Float32frombits(t.input.Read32(ptAddr+uint32(4*(i*d+f)))) {
					return fmt.Errorf("kmeans1: feat[%d][%d] wrong", f, i)
				}
			}
		}
		got := mem.ReadI32Slice(memAddr, n)
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("kmeans2: membership[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}
	return t, nil
}

// Heartwall is a condensed form of the Rodinia ultrasound tracking
// benchmark: each block tracks one sample point by matching an 8x8 template
// against a 3x3 search neighbourhood (SSD matching with a shared-memory
// reduction), emitting the best-matching displacement.
func Heartwall() (*Instance, error) { return instance(heartwall()) }

func buildHeartwall() (*template, error) {
	const imgDim = 64
	const patch = 8 // 8x8 = 64 pixels = 64 threads
	const np = 48   // tracking points

	// Params: 0=image, 1=templates, 2=coords(x,y int pairs), 3=outIdx.
	b := kernel.NewBuilder("heartwall", 24).Params(4).SMem(64 * 4)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX) // point index
	// Point top-left corner.
	b.LdParam(2, 2)
	b.IShl(3, kernel.R(1), kernel.I(3)) // p*8 bytes (2 ints)
	b.IAdd(2, kernel.R(2), kernel.R(3))
	b.Ld(kernel.SpaceGlobal, 4, kernel.R(2), 0) // px
	b.Ld(kernel.SpaceGlobal, 5, kernel.R(2), 4) // py
	// Pixel (r, c) of this thread within the patch.
	b.IShr(6, kernel.R(0), kernel.I(3)) // r
	b.IAnd(7, kernel.R(0), kernel.I(7)) // c
	// Template value: templates[p*64 + tid].
	b.LdParam(8, 1)
	b.IShl(9, kernel.R(1), kernel.I(6))
	b.IAdd(9, kernel.R(9), kernel.R(0))
	b.IShl(9, kernel.R(9), kernel.I(2))
	b.IAdd(8, kernel.R(8), kernel.R(9))
	b.Ld(kernel.SpaceGlobal, 10, kernel.R(8), 0) // tmpl
	b.LdParam(11, 0)                             // image
	b.IShl(12, kernel.R(0), kernel.I(2))         // smem slot
	b.MovF(13, float32(math.Inf(1)))             // best SSD (thread 0)
	b.MovI(14, 0)                                // best offset index
	idx := 0
	for oy := -1; oy <= 1; oy++ {
		for ox := -1; ox <= 1; ox++ {
			// image[(py+oy+r)*imgDim + (px+ox+c)]
			b.IAdd(15, kernel.R(5), kernel.I(int32(oy)))
			b.IAdd(15, kernel.R(15), kernel.R(6))
			b.IMul(15, kernel.R(15), kernel.I(imgDim))
			b.IAdd(16, kernel.R(4), kernel.I(int32(ox)))
			b.IAdd(16, kernel.R(16), kernel.R(7))
			b.IAdd(15, kernel.R(15), kernel.R(16))
			b.IShl(15, kernel.R(15), kernel.I(2))
			b.IAdd(15, kernel.R(11), kernel.R(15))
			b.Ld(kernel.SpaceGlobal, 16, kernel.R(15), 0)
			b.FSub(16, kernel.R(16), kernel.R(10))
			b.FMul(16, kernel.R(16), kernel.R(16))
			b.St(kernel.SpaceShared, kernel.R(12), kernel.R(16), 0)
			b.Bar()
			for stride := 32; stride >= 1; stride /= 2 {
				lbl := fmt.Sprintf("o%ds%d", idx, stride)
				b.ISet(17, kernel.CmpGE, kernel.R(0), kernel.I(int32(stride)))
				b.When(17).Bra(lbl, lbl)
				b.Ld(kernel.SpaceShared, 18, kernel.R(12), int32(4*stride))
				b.Ld(kernel.SpaceShared, 19, kernel.R(12), 0)
				b.FAdd(18, kernel.R(18), kernel.R(19))
				b.St(kernel.SpaceShared, kernel.R(12), kernel.R(18), 0)
				b.Label(lbl)
				b.Bar()
			}
			// All threads track the winner branchlessly (only thread 0's copy
			// is stored).
			b.Ld(kernel.SpaceShared, 18, kernel.U(0), 0)
			b.FSet(19, kernel.CmpLT, kernel.R(18), kernel.R(13))
			b.ISel(14, kernel.R(19), kernel.I(int32(idx)), kernel.R(14))
			b.FMin(13, kernel.R(13), kernel.R(18))
			b.Bar() // smem reused next offset
			idx++
		}
	}
	b.ISet(20, kernel.CmpNE, kernel.R(0), kernel.I(0))
	b.When(20).Exit()
	b.LdParam(21, 3)
	b.IShl(22, kernel.R(1), kernel.I(2))
	b.IAdd(21, kernel.R(21), kernel.R(22))
	b.St(kernel.SpaceGlobal, kernel.R(21), kernel.R(14), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rnd := &lcg{s: 9}
	img := make([]float32, imgDim*imgDim)
	for i := range img {
		img[i] = rnd.rangeF32(0, 255)
	}
	coords := make([]int32, np*2)
	tmpl := make([]float32, np*patch*patch)
	wantIdx := make([]int32, np)
	for p := 0; p < np; p++ {
		px := int32(2 + rnd.intn(imgDim-patch-4))
		py := int32(2 + rnd.intn(imgDim-patch-4))
		coords[2*p] = px
		coords[2*p+1] = py
		// The template is the patch at a known true offset: SSD is zero
		// there, so the kernel must recover exactly that displacement.
		oy := rnd.intn(3) - 1
		ox := rnd.intn(3) - 1
		wantIdx[p] = int32((oy+1)*3 + (ox + 1))
		for r := 0; r < patch; r++ {
			for c := 0; c < patch; c++ {
				tmpl[p*64+r*patch+c] = img[(int(py)+oy+r)*imgDim+int(px)+ox+c]
			}
		}
	}
	imgAddr := mem.AllocF32(img)
	tmplAddr := mem.AllocF32(tmpl)
	coordAddr := mem.AllocI32(coords)
	outAddr := mem.Alloc(np * 4)

	t := newTemplate("heartwall", mem, []Run{{
		Name: "heartwall",
		Launch: &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: np, Y: 1},
			Block:  kernel.Dim{X: patch * patch, Y: 1},
			Params: []uint32{imgAddr, tmplAddr, coordAddr, outAddr},
		},
	}})
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadI32Slice(outAddr, np)
		for p := 0; p < np; p++ {
			if got[p] != wantIdx[p] {
				return fmt.Errorf("heartwall: point %d matched offset %d, want %d", p, got[p], wantIdx[p])
			}
		}
		return nil
	}
	return t, nil
}
