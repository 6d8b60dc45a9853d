package kernel

import (
	"fmt"
	"math"
)

// GlobalMem is the device global-memory image: a flat 32-bit byte-address
// space accessed in aligned 32-bit words. The host side of a benchmark
// allocates buffers, fills inputs and reads back results; the device side
// accesses it through Ld/St instructions.
type GlobalMem struct {
	words []uint32
	next  uint32

	// digest is a content digest of (next, words) recorded by SetDigest;
	// hasDigest is cleared by every mutation, so a set digest always
	// describes the current image.
	digest    [32]byte
	hasDigest bool
}

// NewGlobalMem returns an empty memory. The zero address is left unmapped so
// that address 0 can serve as a null pointer.
func NewGlobalMem() *GlobalMem {
	return &GlobalMem{next: 256}
}

// Alloc reserves n bytes and returns the base address (256-byte aligned,
// mirroring cudaMalloc alignment).
func (m *GlobalMem) Alloc(n int) uint32 {
	if n < 0 {
		panic("kernel: negative allocation")
	}
	m.hasDigest = false
	base := m.next
	m.next += uint32((n + 255) &^ 255)
	if need := int(m.next+3) / 4; need > len(m.words) {
		grown := make([]uint32, need+need/2)
		copy(grown, m.words)
		m.words = grown
	}
	return base
}

// Size returns the high-water byte size of the allocated space.
func (m *GlobalMem) Size() int { return int(m.next) }

func (m *GlobalMem) idx(addr uint32) int {
	m.hasDigest = false
	i := int(addr / 4)
	if i >= len(m.words) {
		// Writes beyond the allocated space grow the image; hardware would
		// fault, but benchmarks under test deserve a usable zero rather
		// than a crash, and the functional tests verify addresses anyway.
		grown := make([]uint32, i+i/2+4)
		copy(grown, m.words)
		m.words = grown
	}
	return i
}

// Read32 loads the aligned 32-bit word containing addr. Reads beyond the
// image are side-effect-free and return zero, like an unmapped page; only
// writes grow the image. (A read that grew the image would perturb its size
// — and therefore its content hash, which the simulation-result cache keys
// timing results by.)
func (m *GlobalMem) Read32(addr uint32) uint32 {
	if i := int(addr / 4); i < len(m.words) {
		return m.words[i]
	}
	return 0
}

// Write32 stores v to the aligned 32-bit word containing addr.
func (m *GlobalMem) Write32(addr uint32, v uint32) { m.words[m.idx(addr)] = v }

// ReadF32 loads a float32.
func (m *GlobalMem) ReadF32(addr uint32) float32 { return b2f(m.Read32(addr)) }

// WriteF32 stores a float32.
func (m *GlobalMem) WriteF32(addr uint32, v float32) { m.Write32(addr, f2b(v)) }

// span returns the n words starting at the one containing addr, for
// writing, if they all lie inside the image. A bulk write reaching past the
// end takes the per-word path instead, which grows the image exactly as
// word-by-word writes would.
func (m *GlobalMem) span(addr uint32, n int) ([]uint32, bool) {
	i := int(addr / 4)
	if i+n > len(m.words) {
		return nil, false
	}
	m.hasDigest = false
	return m.words[i : i+n], true
}

// WriteI32Slice bulk-writes int32 values starting at addr.
func (m *GlobalMem) WriteI32Slice(addr uint32, vs []int32) {
	if dst, ok := m.span(addr, len(vs)); ok {
		for i, v := range vs {
			dst[i] = uint32(v)
		}
		return
	}
	for i, v := range vs {
		m.Write32(addr+uint32(4*i), uint32(v))
	}
}

// ReadI32Slice bulk-reads n int32 values starting at addr.
func (m *GlobalMem) ReadI32Slice(addr uint32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(m.Read32(addr + uint32(4*i)))
	}
	return out
}

// WriteF32Slice bulk-writes float32 values starting at addr.
func (m *GlobalMem) WriteF32Slice(addr uint32, vs []float32) {
	if dst, ok := m.span(addr, len(vs)); ok {
		for i, v := range vs {
			dst[i] = f2b(v)
		}
		return
	}
	for i, v := range vs {
		m.WriteF32(addr+uint32(4*i), v)
	}
}

// ReadF32Slice bulk-reads n float32 values starting at addr.
func (m *GlobalMem) ReadF32Slice(addr uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.ReadF32(addr + uint32(4*i))
	}
	return out
}

// AllocF32 allocates and initialises a float32 buffer, returning its address.
func (m *GlobalMem) AllocF32(vs []float32) uint32 {
	a := m.Alloc(4 * len(vs))
	m.WriteF32Slice(a, vs)
	return a
}

// AllocI32 allocates and initialises an int32 buffer, returning its address.
func (m *GlobalMem) AllocI32(vs []int32) uint32 {
	a := m.Alloc(4 * len(vs))
	m.WriteI32Slice(a, vs)
	return a
}

// AllocZeroF32 allocates an n-element zeroed float32 buffer.
func (m *GlobalMem) AllocZeroF32(n int) uint32 { return m.Alloc(4 * n) }

// MemSnapshot is a frozen copy of a GlobalMem image, taken by Snapshot and
// applied by Restore. The simulation-result cache stores one per cached
// timing result so that a cache hit can replay the kernel's memory side
// effects without re-simulating.
type MemSnapshot struct {
	Words []uint32
	Next  uint32
}

// Snapshot returns a frozen copy of the image.
func (m *GlobalMem) Snapshot() MemSnapshot {
	return MemSnapshot{Words: append([]uint32(nil), m.words...), Next: m.next}
}

// Restore overwrites the image with a snapshot's content. The snapshot is
// copied, so writes through the image never alias it.
func (m *GlobalMem) Restore(s MemSnapshot) {
	if cap(m.words) >= len(s.Words) {
		m.words = m.words[:len(s.Words)]
	} else {
		m.words = make([]uint32, len(s.Words))
	}
	copy(m.words, s.Words)
	m.next = s.Next
	m.hasDigest = false
}

// SetDigest records d as the content digest of the image as it stands: the
// caller vouches that d hashes exactly the current high-water mark and
// words. Any later mutation — an allocation, a write, a Restore — drops it.
// The result cache sets it on the images it leaves behind, so that the next
// launch on an unchanged image can be keyed without rehashing its words.
func (m *GlobalMem) SetDigest(d [32]byte) { m.digest, m.hasDigest = d, true }

// Digest returns the digest recorded by SetDigest, and whether the image is
// unchanged since it was recorded.
func (m *GlobalMem) Digest() ([32]byte, bool) { return m.digest, m.hasDigest }

// Words exposes the raw word image for content hashing. Callers must treat
// the slice as read-only.
func (m *GlobalMem) Words() []uint32 { return m.words }

func f2b(v float32) uint32 { return math.Float32bits(v) }
func b2f(v uint32) float32 { return math.Float32frombits(v) }

// ConstMem is the read-only constant segment, indexed by byte address.
type ConstMem struct {
	words []uint32
}

// NewConstMem builds a constant segment of the given byte size.
func NewConstMem(bytes int) *ConstMem {
	return &ConstMem{words: make([]uint32, (bytes+3)/4)}
}

// WriteF32Slice initialises constants (host-side, pre-launch).
func (c *ConstMem) WriteF32Slice(addr uint32, vs []float32) {
	for i, v := range vs {
		c.words[int(addr/4)+i] = f2b(v)
	}
}

// WriteI32Slice initialises integer constants.
func (c *ConstMem) WriteI32Slice(addr uint32, vs []int32) {
	for i, v := range vs {
		c.words[int(addr/4)+i] = uint32(v)
	}
}

// Read32 loads a constant word; out-of-range reads return zero like an
// unmapped constant bank.
func (c *ConstMem) Read32(addr uint32) uint32 {
	i := int(addr / 4)
	if i >= len(c.words) {
		return 0
	}
	return c.words[i]
}

// Bytes returns the segment size in bytes.
func (c *ConstMem) Bytes() int { return 4 * len(c.words) }

// Words exposes the raw word image for content hashing. Callers must treat
// the slice as read-only.
func (c *ConstMem) Words() []uint32 { return c.words }

func (c *ConstMem) String() string { return fmt.Sprintf("const[%dB]", c.Bytes()) }
