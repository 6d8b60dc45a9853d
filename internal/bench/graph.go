package bench

import (
	"fmt"
	"sync"

	"gpusimpow/internal/kernel"
)

var (
	bfs    = sync.OnceValues(buildBFS)
	needle = sync.OnceValues(buildNeedle)
)

// BFS is the Rodinia breadth-first search: a frontier-expansion kernel
// (bfs1) and a frontier-update kernel (bfs2), launched once per BFS level —
// the classic irregular, divergence-heavy GPGPU workload.
func BFS() (*Instance, error) { return instance(bfs()) }

func buildBFS() (*template, error) {
	const n = 1024
	const degree = 4

	// Build a random directed graph in CSR form; chain edges i -> i+1 keep
	// it connected, random edges keep the level count small.
	rnd := &lcg{s: 10}
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		if i+1 < n {
			adj[i] = append(adj[i], int32(i+1))
		}
		for e := 0; e < degree; e++ {
			adj[i] = append(adj[i], int32(rnd.intn(n)))
		}
	}
	rowOff := make([]int32, n+1)
	var cols []int32
	for i := 0; i < n; i++ {
		rowOff[i+1] = rowOff[i] + int32(len(adj[i]))
		cols = append(cols, adj[i]...)
	}

	// Host-side reference BFS (also yields the level count).
	ref := make([]int32, n)
	for i := range ref {
		ref[i] = -1
	}
	ref[0] = 0
	frontier := []int32{0}
	levels := 0
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range adj[u] {
				if ref[v] < 0 {
					ref[v] = ref[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
		levels++
	}

	// --- Kernel 1: expand the frontier ---
	// Params: 0=rowOff, 1=cols, 2=mask, 3=updating, 4=visited, 5=cost, 6=n.
	b1 := kernel.NewBuilder("bfs1", 22).Params(7)
	emitGlobalTidX(b1, 0, 1, 2)
	b1.LdParam(3, 6)
	emitGuardExit(b1, 0, 3, 4)
	b1.IShl(4, kernel.R(0), kernel.I(2)) // byte offset of this node
	b1.LdParam(5, 2)
	b1.IAdd(5, kernel.R(5), kernel.R(4))
	b1.Ld(kernel.SpaceGlobal, 6, kernel.R(5), 0) // mask[tid]
	b1.ISet(7, kernel.CmpEQ, kernel.R(6), kernel.I(0))
	b1.When(7).Exit() // not in frontier
	b1.MovI(6, 0)
	b1.St(kernel.SpaceGlobal, kernel.R(5), kernel.R(6), 0) // mask[tid] = 0
	// cost[tid]
	b1.LdParam(8, 5)
	b1.IAdd(9, kernel.R(8), kernel.R(4))
	b1.Ld(kernel.SpaceGlobal, 10, kernel.R(9), 0) // myCost
	b1.IAdd(10, kernel.R(10), kernel.I(1))
	// Edge range.
	b1.LdParam(11, 0)
	b1.IAdd(12, kernel.R(11), kernel.R(4))
	b1.Ld(kernel.SpaceGlobal, 13, kernel.R(12), 0) // start
	b1.Ld(kernel.SpaceGlobal, 14, kernel.R(12), 4) // end
	b1.LdParam(15, 1)                              // cols
	b1.LdParam(16, 4)                              // visited
	b1.LdParam(17, 3)                              // updating
	b1.Label("edges")
	b1.ISet(18, kernel.CmpGE, kernel.R(13), kernel.R(14))
	b1.When(18).Bra("done", "done")
	b1.IShl(19, kernel.R(13), kernel.I(2))
	b1.IAdd(19, kernel.R(15), kernel.R(19))
	b1.Ld(kernel.SpaceGlobal, 20, kernel.R(19), 0) // neighbour id
	b1.IShl(20, kernel.R(20), kernel.I(2))
	b1.IAdd(19, kernel.R(16), kernel.R(20))
	b1.Ld(kernel.SpaceGlobal, 21, kernel.R(19), 0) // visited[nb]
	b1.ISet(21, kernel.CmpEQ, kernel.R(21), kernel.I(0))
	b1.Unless(21).Bra("next", "next")
	// cost[nb] = myCost; updating[nb] = 1 (benign race: same value).
	b1.IAdd(19, kernel.R(8), kernel.R(20))
	b1.St(kernel.SpaceGlobal, kernel.R(19), kernel.R(10), 0)
	b1.IAdd(19, kernel.R(17), kernel.R(20))
	b1.MovI(6, 1)
	b1.St(kernel.SpaceGlobal, kernel.R(19), kernel.R(6), 0)
	b1.Label("next")
	b1.IAdd(13, kernel.R(13), kernel.I(1))
	b1.BraUni("edges")
	b1.Label("done")
	b1.Exit()
	prog1, err := b1.Build()
	if err != nil {
		return nil, err
	}

	// --- Kernel 2: commit the next frontier ---
	// Params: 0=mask, 1=updating, 2=visited, 3=continueFlag, 4=n.
	b2 := kernel.NewBuilder("bfs2", 14).Params(5)
	emitGlobalTidX(b2, 0, 1, 2)
	b2.LdParam(3, 4)
	emitGuardExit(b2, 0, 3, 4)
	b2.IShl(4, kernel.R(0), kernel.I(2))
	b2.LdParam(5, 1)
	b2.IAdd(5, kernel.R(5), kernel.R(4))
	b2.Ld(kernel.SpaceGlobal, 6, kernel.R(5), 0) // updating[tid]
	b2.ISet(7, kernel.CmpEQ, kernel.R(6), kernel.I(0))
	b2.When(7).Exit()
	b2.MovI(8, 1)
	b2.LdParam(9, 0)
	b2.IAdd(9, kernel.R(9), kernel.R(4))
	b2.St(kernel.SpaceGlobal, kernel.R(9), kernel.R(8), 0) // mask = 1
	b2.LdParam(9, 2)
	b2.IAdd(9, kernel.R(9), kernel.R(4))
	b2.St(kernel.SpaceGlobal, kernel.R(9), kernel.R(8), 0) // visited = 1
	b2.LdParam(9, 3)
	b2.St(kernel.SpaceGlobal, kernel.R(9), kernel.R(8), 0) // continue = 1
	b2.MovI(8, 0)
	b2.St(kernel.SpaceGlobal, kernel.R(5), kernel.R(8), 0) // updating = 0
	b2.Exit()
	prog2, err := b2.Build()
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	rowAddr := mem.AllocI32(rowOff)
	colAddr := mem.AllocI32(cols)
	maskAddr := mem.Alloc(n * 4)
	updAddr := mem.Alloc(n * 4)
	visAddr := mem.Alloc(n * 4)
	costAddr := mem.Alloc(n * 4)
	flagAddr := mem.Alloc(4)
	// Source node 0 forms the initial frontier.
	mem.Write32(maskAddr, 1)
	mem.Write32(visAddr, 1)
	for i := 1; i < n; i++ {
		mem.Write32(costAddr+uint32(4*i), uint32(0xFFFFFFFF)) // -1
	}

	var runs []Run
	grid := kernel.Dim{X: n / 256, Y: 1}
	block := kernel.Dim{X: 256, Y: 1}
	for lvl := 0; lvl < levels; lvl++ {
		runs = append(runs,
			Run{
				Name: "bfs1",
				Launch: &kernel.Launch{
					Prog: prog1, Grid: grid, Block: block,
					Params: []uint32{rowAddr, colAddr, maskAddr, updAddr, visAddr, costAddr, n},
				},
			},
			Run{
				Name: "bfs2",
				Launch: &kernel.Launch{
					Prog: prog2, Grid: grid, Block: block,
					Params: []uint32{maskAddr, updAddr, visAddr, flagAddr, n},
				},
			},
		)
	}
	t := newTemplate("bfs", mem, runs)
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadI32Slice(costAddr, n)
		for i := 0; i < n; i++ {
			if got[i] != ref[i] {
				return fmt.Errorf("bfs: cost[%d] = %d, want %d", i, got[i], ref[i])
			}
		}
		return nil
	}
	return t, nil
}

// Needle is the Rodinia Needleman-Wunsch sequence alignment benchmark: the
// DP score matrix is processed in 16x16 tiles along anti-diagonals, with
// needle1 sweeping the growing half of the matrix and needle2 the shrinking
// half (two kernels, as in Fig. 6).
func Needle() (*Instance, error) { return instance(needle()) }

func buildNeedle() (*template, error) {
	const nTiles = 6
	const tile = 16
	const n = nTiles * tile // sequence length; matrix is (n+1)^2
	const dim = n + 1
	const penalty = 2

	rnd := &lcg{s: 11}
	// Similarity matrix entries for cells (1..n, 1..n).
	sim := make([]int32, dim*dim)
	for i := 1; i < dim; i++ {
		for j := 1; j < dim; j++ {
			sim[i*dim+j] = int32(rnd.intn(20)) - 10
		}
	}
	// Score matrix with initialised borders.
	score := make([]int32, dim*dim)
	for i := 0; i < dim; i++ {
		score[i*dim] = int32(-i * penalty)
		score[i] = int32(-i * penalty)
	}

	// Host reference DP.
	ref := append([]int32(nil), score...)
	for i := 1; i < dim; i++ {
		for j := 1; j < dim; j++ {
			d := ref[(i-1)*dim+(j-1)] + sim[i*dim+j]
			u := ref[(i-1)*dim+j] - penalty
			l := ref[i*dim+(j-1)] - penalty
			m := d
			if u > m {
				m = u
			}
			if l > m {
				m = l
			}
			ref[i*dim+j] = m
		}
	}

	// One program serves both kernels; the tile-coordinate mapping differs
	// via the params: tileX = bid*dxBid + xOff; tileY = yOff - bid.
	// Params: 0=score, 1=sim, 2=xOff, 3=yOff.
	build := func(name string) (*kernel.Program, error) {
		b := kernel.NewBuilder(name, 26).Params(4).SMem((tile + 1) * (tile + 1) * 4)
		b.SReg(0, kernel.SpecTidX) // t in [0, tile)
		b.SReg(1, kernel.SpecCtaX)
		b.LdParam(2, 2)
		b.IAdd(2, kernel.R(2), kernel.R(1)) // tileX
		b.LdParam(3, 3)
		b.ISub(3, kernel.R(3), kernel.R(1)) // tileY
		// Global base cell of the tile: row = tileY*tile + 1, col = tileX*tile + 1.
		b.IMul(4, kernel.R(3), kernel.I(tile))
		b.IAdd(4, kernel.R(4), kernel.I(1)) // rowBase
		b.IMul(5, kernel.R(2), kernel.I(tile))
		b.IAdd(5, kernel.R(5), kernel.I(1)) // colBase
		b.LdParam(6, 0)                     // score base
		// Load halo: sm[0][t+1] = score[rowBase-1][colBase+t]
		const smw = tile + 1
		gaddr := func(dst, row, col int, rowImm, colImm int32) {
			// dst = score + ((row+rowImm)*dim + col+colImm)*4
			b.IAdd(dst, kernel.R(row), kernel.I(rowImm))
			b.IMul(dst, kernel.R(dst), kernel.I(dim))
			b.IAdd(dst, kernel.R(dst), kernel.R(col))
			b.IAdd(dst, kernel.R(dst), kernel.I(colImm))
			b.IShl(dst, kernel.R(dst), kernel.I(2))
			b.IAdd(dst, kernel.R(6), kernel.R(dst))
		}
		// top halo (col varies with t)
		b.IAdd(7, kernel.R(5), kernel.R(0)) // colBase + t
		b.IAdd(8, kernel.R(4), kernel.I(-1))
		b.IMul(8, kernel.R(8), kernel.I(dim))
		b.IAdd(8, kernel.R(8), kernel.R(7))
		b.IShl(8, kernel.R(8), kernel.I(2))
		b.IAdd(8, kernel.R(6), kernel.R(8))
		b.Ld(kernel.SpaceGlobal, 9, kernel.R(8), 0)
		b.IAdd(10, kernel.R(0), kernel.I(1))
		b.IShl(10, kernel.R(10), kernel.I(2))
		b.St(kernel.SpaceShared, kernel.R(10), kernel.R(9), 0) // sm[0][t+1]
		// left halo: sm[t+1][0] = score[rowBase+t][colBase-1]
		b.IAdd(8, kernel.R(4), kernel.R(0))
		b.IMul(8, kernel.R(8), kernel.I(dim))
		b.IAdd(8, kernel.R(8), kernel.R(5))
		b.IAdd(8, kernel.R(8), kernel.I(-1))
		b.IShl(8, kernel.R(8), kernel.I(2))
		b.IAdd(8, kernel.R(6), kernel.R(8))
		b.Ld(kernel.SpaceGlobal, 9, kernel.R(8), 0)
		b.IAdd(10, kernel.R(0), kernel.I(1))
		b.IMul(10, kernel.R(10), kernel.I(smw*4))
		b.St(kernel.SpaceShared, kernel.R(10), kernel.R(9), 0) // sm[t+1][0]
		// corner by thread 0
		b.ISet(11, kernel.CmpNE, kernel.R(0), kernel.I(0))
		b.When(11).Bra("corner_done", "corner_done")
		gaddr(8, 4, 5, -1, -1)
		b.Ld(kernel.SpaceGlobal, 9, kernel.R(8), 0)
		b.St(kernel.SpaceShared, kernel.U(0), kernel.R(9), 0)
		b.Label("corner_done")
		b.Bar()
		// Wavefront: step m = 0..2*tile-2; thread t handles cell
		// (i=t+1, j=m-t+1) when 0 <= m-t < tile.
		b.LdParam(12, 1) // sim base
		b.MovI(13, 0)    // m
		b.Label("wave")
		b.ISub(14, kernel.R(13), kernel.R(0)) // j-1 = m - t
		// active = (m-t) in [0, tile)
		b.ISet(15, kernel.CmpGE, kernel.R(14), kernel.I(0))
		b.ISet(16, kernel.CmpLT, kernel.R(14), kernel.I(tile))
		b.IAnd(15, kernel.R(15), kernel.R(16))
		b.Unless(15).Bra("wave_sync", "wave_sync")
		// local (i, j) = (t+1, m-t+1); smem linear = i*smw + j.
		b.IAdd(16, kernel.R(0), kernel.I(1))  // i
		b.IAdd(17, kernel.R(14), kernel.I(1)) // j
		b.IMul(18, kernel.R(16), kernel.I(smw))
		b.IAdd(18, kernel.R(18), kernel.R(17))
		b.IShl(18, kernel.R(18), kernel.I(2)) // &sm[i][j] (byte)
		// Neighbours: diag = sm[i-1][j-1], up = sm[i-1][j], left = sm[i][j-1].
		b.Ld(kernel.SpaceShared, 19, kernel.R(18), int32(-4*(smw+1)))
		b.Ld(kernel.SpaceShared, 20, kernel.R(18), int32(-4*smw))
		b.Ld(kernel.SpaceShared, 21, kernel.R(18), -4)
		// sim[(rowBase+t)*dim + colBase + m-t]
		b.IAdd(22, kernel.R(4), kernel.R(0))
		b.IMul(22, kernel.R(22), kernel.I(dim))
		b.IAdd(22, kernel.R(22), kernel.R(5))
		b.IAdd(22, kernel.R(22), kernel.R(14))
		b.IShl(22, kernel.R(22), kernel.I(2))
		b.IAdd(22, kernel.R(12), kernel.R(22))
		b.Ld(kernel.SpaceGlobal, 23, kernel.R(22), 0)
		b.IAdd(19, kernel.R(19), kernel.R(23))       // diag + sim
		b.IAdd(20, kernel.R(20), kernel.I(-penalty)) // up - penalty
		b.IAdd(21, kernel.R(21), kernel.I(-penalty)) // left - penalty
		b.IMax(19, kernel.R(19), kernel.R(20))
		b.IMax(19, kernel.R(19), kernel.R(21))
		b.St(kernel.SpaceShared, kernel.R(18), kernel.R(19), 0)
		b.Label("wave_sync")
		b.Bar()
		b.IAdd(13, kernel.R(13), kernel.I(1))
		b.ISet(15, kernel.CmpLT, kernel.R(13), kernel.I(2*tile-1))
		b.When(15).Bra("wave", "writeback")
		b.Label("writeback")
		// Write the tile back: thread t writes column t+1 of all rows.
		b.MovI(13, 1) // row r
		b.Label("wb")
		b.IMul(18, kernel.R(13), kernel.I(smw))
		b.IAdd(18, kernel.R(18), kernel.R(0))
		b.IAdd(18, kernel.R(18), kernel.I(1))
		b.IShl(18, kernel.R(18), kernel.I(2))
		b.Ld(kernel.SpaceShared, 19, kernel.R(18), 0) // sm[r][t+1]
		b.IAdd(20, kernel.R(4), kernel.R(13))
		b.IAdd(20, kernel.R(20), kernel.I(-1))
		b.IMul(20, kernel.R(20), kernel.I(dim))
		b.IAdd(20, kernel.R(20), kernel.R(5))
		b.IAdd(20, kernel.R(20), kernel.R(0))
		b.IShl(20, kernel.R(20), kernel.I(2))
		b.IAdd(20, kernel.R(6), kernel.R(20))
		b.St(kernel.SpaceGlobal, kernel.R(20), kernel.R(19), 0)
		b.IAdd(13, kernel.R(13), kernel.I(1))
		b.ISet(15, kernel.CmpLE, kernel.R(13), kernel.I(tile))
		b.When(15).Bra("wb", "end")
		b.Label("end")
		b.Exit()
		return b.Build()
	}

	prog1, err := build("needle1")
	if err != nil {
		return nil, err
	}
	prog2, err := build("needle2")
	if err != nil {
		return nil, err
	}

	mem := kernel.NewGlobalMem()
	scoreAddr := mem.AllocI32(score)
	simAddr := mem.AllocI32(sim)

	var runs []Run
	block := kernel.Dim{X: tile, Y: 1}
	// Growing diagonals: g = 0..nTiles-1, tiles (bid, g-bid).
	for g := 0; g < nTiles; g++ {
		runs = append(runs, Run{
			Name: "needle1",
			Launch: &kernel.Launch{
				Prog: prog1, Grid: kernel.Dim{X: g + 1, Y: 1}, Block: block,
				Params: []uint32{scoreAddr, simAddr, 0, uint32(g)},
			},
		})
	}
	// Shrinking diagonals: g = nTiles..2*nTiles-2, tileX = g-(nTiles-1)+bid.
	for g := nTiles; g <= 2*nTiles-2; g++ {
		runs = append(runs, Run{
			Name: "needle2",
			Launch: &kernel.Launch{
				Prog: prog2, Grid: kernel.Dim{X: 2*nTiles - 1 - g, Y: 1}, Block: block,
				Params: []uint32{scoreAddr, simAddr, uint32(g - (nTiles - 1)), uint32(nTiles - 1)},
			},
		})
	}
	t := newTemplate("needle", mem, runs)
	t.check = func(mem *kernel.GlobalMem) error {
		got := mem.ReadI32Slice(scoreAddr, dim*dim)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				if got[i*dim+j] != ref[i*dim+j] {
					return fmt.Errorf("needle: score[%d][%d] = %d, want %d", i, j, got[i*dim+j], ref[i*dim+j])
				}
			}
		}
		return nil
	}
	return t, nil
}
