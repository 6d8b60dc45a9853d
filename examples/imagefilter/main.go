// Imagefilter: exercise the texture-cache subsystem — the LDSTU extension
// the paper defers to "a future variant of the model". A 3x3 box blur reads
// its pixels through the texture path on a GT240 configured with an 8 KB
// texture cache, and the example reports the texture hit rate and the power
// contribution of the texture-enabled LDSTU.
//
//	go run ./examples/imagefilter
package main

import (
	"fmt"
	"log"

	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/kernel"
)

const w = 128 // square image

func buildBlur() *kernel.Program {
	b := kernel.NewBuilder("boxblur", 16).Params(2)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0)) // pixel index
	b.LdParam(3, 0)                                  // texture base
	b.IAnd(4, kernel.R(0), kernel.I(w-1))            // x
	b.IShr(5, kernel.R(0), kernel.I(7))              // y (w = 128)
	b.MovF(6, 0)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			b.IAdd(7, kernel.R(4), kernel.I(int32(dx)))
			b.IMax(7, kernel.R(7), kernel.I(0))
			b.IMin(7, kernel.R(7), kernel.I(w-1))
			b.IAdd(8, kernel.R(5), kernel.I(int32(dy)))
			b.IMax(8, kernel.R(8), kernel.I(0))
			b.IMin(8, kernel.R(8), kernel.I(w-1))
			b.IMul(8, kernel.R(8), kernel.I(w))
			b.IAdd(7, kernel.R(7), kernel.R(8))
			b.IShl(7, kernel.R(7), kernel.I(2))
			b.IAdd(7, kernel.R(3), kernel.R(7))
			b.Ld(kernel.SpaceTexture, 9, kernel.R(7), 0)
			b.FAdd(6, kernel.R(6), kernel.R(9))
		}
	}
	b.FMul(6, kernel.R(6), kernel.F(1.0/9.0))
	b.LdParam(10, 1)
	b.IShl(11, kernel.R(0), kernel.I(2))
	b.IAdd(10, kernel.R(10), kernel.R(11))
	b.St(kernel.SpaceGlobal, kernel.R(10), kernel.R(6), 0)
	b.Exit()
	return b.MustBuild()
}

func main() {
	cfg := config.GT240()
	cfg.Name = "GT240+tex"
	cfg.TexCacheKB = 8
	cfg.TexLineB = 32

	simr, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	mem := kernel.NewGlobalMem()
	img := make([]float32, w*w)
	for i := range img {
		img[i] = float32((i*37)%251) / 251
	}
	imgAddr := mem.AllocF32(img)
	outAddr := mem.AllocZeroF32(w * w)

	l := &kernel.Launch{
		Prog:   buildBlur(),
		Grid:   kernel.Dim{X: w * w / 256, Y: 1},
		Block:  kernel.Dim{X: 256, Y: 1},
		Params: []uint32{imgAddr, outAddr},
	}
	rep, err := simr.RunKernel(l, mem, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against a host reference.
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > w-1 {
			return w - 1
		}
		return v
	}
	out := mem.ReadF32Slice(outAddr, w*w)
	for i := range out {
		x, y := i%w, i/w
		var want float32
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				want += img[clamp(y+dy)*w+clamp(x+dx)]
			}
		}
		want = float32(want * (1.0 / 9.0))
		if d := out[i] - want; d > 1e-4 || d < -1e-4 {
			log.Fatalf("pixel %d: got %v, want %v", i, out[i], want)
		}
	}

	a := rep.Perf.Activity
	fmt.Printf("3x3 box blur, %dx%d image, texture path on %s\n", w, w, cfg.Name)
	fmt.Printf("texture reads: %d, misses: %d (hit rate %.1f%%)\n",
		a.TexReads, a.TexMisses, 100*(1-float64(a.TexMisses)/float64(a.TexReads)))
	fmt.Printf("runtime %.3g s, power %.2f W total (%.2f dynamic)\n",
		rep.Power.Seconds, rep.Power.TotalW, rep.Power.DynamicW)
	fmt.Println("verification: OK")
}
