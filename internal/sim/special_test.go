package sim

import (
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// specialSlots is the number of words each thread of specialProg stores:
// the ten special registers, then one IMad whose sources are all special.
const specialSlots = 11

// specialProg stores, per thread, every special register and
// ctaid.y*nctaid.x + ctaid.x computed by a single all-special IMad (which
// reads specials through sources 1 and 2 and several at once). The IMad
// result, the linear block index, also places the thread's output slots.
// Params: 0 = output base.
func specialProg() *kernel.Program {
	specs := []kernel.Special{
		kernel.SpecTidX, kernel.SpecTidY, kernel.SpecNTidX, kernel.SpecNTidY,
		kernel.SpecCtaX, kernel.SpecCtaY, kernel.SpecNCtaX, kernel.SpecNCtaY,
		kernel.SpecLane, kernel.SpecWarpInBlock,
	}
	b := kernel.NewBuilder("specials", 16).Params(1)
	for r, s := range specs {
		b.SReg(r, s)
	}
	b.IMad(10, kernel.S(kernel.SpecCtaY), kernel.S(kernel.SpecNCtaX), kernel.S(kernel.SpecCtaX))
	// r13 = (block*ntid.x*ntid.y + tid.y*ntid.x + tid.x) * slots * 4
	b.IMad(11, kernel.R(1), kernel.R(2), kernel.R(0))
	b.IMul(12, kernel.R(2), kernel.R(3))
	b.IMad(13, kernel.R(10), kernel.R(12), kernel.R(11))
	b.IMul(13, kernel.R(13), kernel.I(specialSlots*4))
	b.LdParam(14, 0)
	b.IAdd(14, kernel.R(14), kernel.R(13))
	for r := 0; r < specialSlots; r++ {
		b.St(kernel.SpaceGlobal, kernel.R(14), kernel.R(r), int32(4*r))
	}
	b.Exit()
	return b.MustBuild()
}

// TestSpecialRegisters checks every special register's value, per thread,
// on a 2-D grid of 2-D blocks whose last warp is partial, through both the
// functional interpreter and the timing simulator.
func TestSpecialRegisters(t *testing.T) {
	grid := kernel.Dim{X: 3, Y: 2}
	block := kernel.Dim{X: 20, Y: 3} // 60 threads: a full warp and a 28-lane one
	threads := block.Count()
	for _, run := range []struct {
		name string
		exec func(*kernel.Launch, *kernel.GlobalMem) error
	}{
		{"Interp", func(l *kernel.Launch, mem *kernel.GlobalMem) error {
			_, err := kernel.Interp(l, mem, nil)
			return err
		}},
		{"GPU.Run", func(l *kernel.Launch, mem *kernel.GlobalMem) error {
			g, err := New(config.GT240())
			if err != nil {
				return err
			}
			_, err = g.Run(l, mem, nil)
			return err
		}},
	} {
		t.Run(run.name, func(t *testing.T) {
			mem := kernel.NewGlobalMem()
			out := mem.Alloc(grid.Count() * threads * specialSlots * 4)
			l := &kernel.Launch{Prog: specialProg(), Grid: grid, Block: block, Params: []uint32{out}}
			if err := run.exec(l, mem); err != nil {
				t.Fatal(err)
			}
			names := [specialSlots]string{"tid.x", "tid.y", "ntid.x", "ntid.y", "ctaid.x", "ctaid.y",
				"nctaid.x", "nctaid.y", "laneid", "warpid", "imad(ctaid.y, nctaid.x, ctaid.x)"}
			for ctaY := 0; ctaY < grid.Y; ctaY++ {
				for ctaX := 0; ctaX < grid.X; ctaX++ {
					blk := ctaY*grid.X + ctaX
					for tid := 0; tid < threads; tid++ {
						want := [specialSlots]int{
							tid % block.X, tid / block.X, block.X, block.Y,
							ctaX, ctaY, grid.X, grid.Y,
							tid % kernel.WarpSize, tid / kernel.WarpSize, blk,
						}
						base := out + uint32((blk*threads+tid)*specialSlots*4)
						for k, w := range want {
							if got := mem.Read32(base + uint32(4*k)); got != uint32(w) {
								t.Fatalf("block (%d,%d) thread %d: %s = %d, want %d", ctaX, ctaY, tid, names[k], got, w)
							}
						}
					}
				}
			}
		})
	}
}
