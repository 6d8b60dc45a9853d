// Package bench implements the GPGPU workloads of the paper's Table I —
// backprop, heartwall, kmeans, pathfinder, bfs and hotspot from Rodinia;
// matmul, blackscholes, mergesort, scalarprod and vectoradd from the CUDA
// SDK — plus needle (Needleman-Wunsch, present in Figure 6), hand-written in
// the internal SIMT ISA. Every benchmark provides a functional verification
// against a host-side Go reference, so the simulator's executed results are
// checked, not just timed.
//
// Each benchmark is built once per process into a template: its programs,
// launches and constant images; its pristine input image with the image's
// content digest; and the host reference outputs its verification compares
// against. The constructors return fresh instances cloned from the
// template. A clone's image carries the template's digest, so the
// simulation-result cache keys its first launch without rehashing the
// image.
package bench

import (
	"fmt"
	"math"
	"slices"

	"gpusimpow/internal/kernel"
)

// Run is one kernel launch of a benchmark, in execution order.
type Run struct {
	// Name is the kernel's display name as used in the paper's Figure 6
	// (e.g. "backprop1", "mergeSort3").
	Name   string
	Launch *kernel.Launch
	CMem   *kernel.ConstMem
	// MaxRepeats caps how often the measurement harness may re-execute the
	// kernel to stretch its measurement window. 0 means unlimited; 1 marks
	// kernels that process data in place and therefore "could not easily be
	// changed to call it multiple times" (the paper's mergeSort3 situation).
	MaxRepeats int
}

// Instance is a ready-to-execute benchmark: launches share one memory image
// and must run in order; Verify checks the final memory against the host
// reference. Every instance owns its memory image; the launches, programs
// and constant images are shared with the benchmark's other instances and
// must not be modified.
type Instance struct {
	Name   string
	Mem    *kernel.GlobalMem
	Runs   []Run
	Verify func() error
}

// template is one benchmark as built once per process. Its runs — the
// programs, launches and constant images — are shared read-only by every
// instance. input is the pristine global-memory image and digest its
// kernel.GlobalMem.ContentDigest. check compares an instance's final image
// against host reference outputs computed when the template was built;
// the host input arrays they were computed from are not kept, and a check
// that needs an input value reads it from input.
type template struct {
	name   string
	runs   []Run
	input  kernel.MemSnapshot
	digest [32]byte
	check  func(mem *kernel.GlobalMem) error
}

// newTemplate freezes mem as the pristine input image of a benchmark whose
// launches are runs; the caller sets check.
func newTemplate(name string, mem *kernel.GlobalMem, runs []Run) *template {
	return &template{name: name, runs: runs, input: mem.Snapshot(), digest: mem.ContentDigest()}
}

// instance returns a fresh instance of t (or err): its own memory image,
// restored from the template's input and carrying its digest, and a Verify
// that checks that image.
func instance(t *template, err error) (*Instance, error) {
	if err != nil {
		return nil, err
	}
	mem := kernel.NewGlobalMem()
	mem.Restore(t.input)
	mem.SetDigest(t.digest)
	return &Instance{
		Name:   t.name,
		Mem:    mem,
		Runs:   slices.Clone(t.runs),
		Verify: func() error { return t.check(mem) },
	}, nil
}

// Factory creates fresh instances of one benchmark.
type Factory struct {
	Name string
	// Kernels is the number of distinct kernels (Table I column 2).
	Kernels int
	Make    func() (*Instance, error)
}

// Suite returns all benchmarks in the order of the paper's Figure 6.
func Suite() []Factory {
	return []Factory{
		{Name: "backprop", Kernels: 2, Make: Backprop},
		{Name: "bfs", Kernels: 2, Make: BFS},
		{Name: "BlackScholes", Kernels: 1, Make: BlackScholes},
		{Name: "heartwall", Kernels: 1, Make: Heartwall},
		{Name: "hotspot", Kernels: 1, Make: Hotspot},
		{Name: "kmeans", Kernels: 2, Make: KMeans},
		{Name: "matrixMul", Kernels: 1, Make: MatrixMul},
		{Name: "mergeSort", Kernels: 4, Make: MergeSort},
		{Name: "needle", Kernels: 2, Make: Needle},
		{Name: "pathfinder", Kernels: 1, Make: Pathfinder},
		{Name: "scalarProd", Kernels: 1, Make: ScalarProd},
		{Name: "vectorAdd", Kernels: 1, Make: VectorAdd},
	}
}

// ByName returns the factory with the given name.
func ByName(name string) (Factory, error) {
	for _, f := range Suite() {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// --- shared assembler idioms ---

// emitGlobalTidX computes the global x thread index into register dst,
// clobbering scratch registers s1 and s2.
func emitGlobalTidX(b *kernel.Builder, dst, s1, s2 int) {
	b.SReg(dst, kernel.SpecTidX)
	b.SReg(s1, kernel.SpecCtaX)
	b.SReg(s2, kernel.SpecNTidX)
	b.IMad(dst, kernel.R(s1), kernel.R(s2), kernel.R(dst))
}

// emitGuardExit exits threads whose register idx is >= the value of
// register n, using scratch register p for the predicate.
func emitGuardExit(b *kernel.Builder, idx, n, p int) {
	b.ISet(p, kernel.CmpGE, kernel.R(idx), kernel.R(n))
	b.When(p).Exit()
}

// approxEq compares float32 values with a relative/absolute tolerance. An
// infinite a never matches: its relative bound below would be infinite too.
// A NaN a fails the comparison by itself.
func approxEq(a, b, tol float32) bool {
	if math.IsInf(float64(a), 0) {
		return false
	}
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	m := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return d <= float64(tol)*math.Max(m, 1)
}

// lcg is a tiny deterministic generator for input data.
type lcg struct{ s uint32 }

func (l *lcg) next() uint32 {
	l.s = l.s*1664525 + 1013904223
	return l.s
}

// f32 returns a float in [0, 1).
func (l *lcg) f32() float32 { return float32(l.next()>>8) / (1 << 24) }

// rangeF32 returns a float in [lo, hi).
func (l *lcg) rangeF32(lo, hi float32) float32 { return lo + (hi-lo)*l.f32() }

// intn returns an int in [0, n).
func (l *lcg) intn(n int) int { return int(l.next() % uint32(n)) }
