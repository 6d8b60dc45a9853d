package kernel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// GlobalMem is the device global-memory image: a flat 32-bit byte-address
// space accessed in aligned 32-bit words. The host side of a benchmark
// allocates buffers, fills inputs and reads back results; the device side
// accesses it through Ld/St instructions.
//
// The image is held as a MemSnapshot whose words may be written: only a
// prefix of its words is stored, and words past it read as zero, so Alloc
// reserves space without allocating it. After Restore the stored words
// are the restored snapshot's own, shared read-only with everyone else who
// restored it; the first write copies them into a private slice of the
// image's full length (copy-on-write), and reads never copy.
type GlobalMem struct {
	img MemSnapshot
	// shared marks img.Words as a restored snapshot's, which no write may
	// touch.
	shared bool

	// digest is ContentDigest of the image as recorded by SetDigest;
	// hasDigest is cleared by every mutation, so a set digest always
	// describes the current image.
	digest    [32]byte
	hasDigest bool
}

// NewGlobalMem returns an empty memory. The zero address is left unmapped so
// that address 0 can serve as a null pointer.
func NewGlobalMem() *GlobalMem {
	return &GlobalMem{img: MemSnapshot{Next: 256}}
}

// Alloc reserves n bytes and returns the base address (256-byte aligned,
// mirroring cudaMalloc alignment). The reserved words read as zero until
// written; Alloc stores none of them.
func (m *GlobalMem) Alloc(n int) uint32 {
	if n < 0 {
		panic("kernel: negative allocation")
	}
	m.hasDigest = false
	base := m.img.Next
	m.img.Next += uint32((n + 255) &^ 255)
	if need := int(m.img.Next+3) / 4; need > m.img.Len {
		m.img.Len = need + need/2
	}
	return base
}

// Size returns the high-water byte size of the allocated space.
func (m *GlobalMem) Size() int { return int(m.img.Next) }

// writable returns the n words starting at word i for writing, storing
// them privately first: a shared image is copied in full, and a private
// one extends its stored words with zeros. The words must lie inside the
// image.
func (m *GlobalMem) writable(i, n int) []uint32 {
	m.hasDigest = false
	ws := m.img.Words
	if m.shared {
		ws = make([]uint32, m.img.Len)
		copy(ws, m.img.Words)
		m.shared = false
	} else if end := i + n; end > len(ws) {
		ws = append(ws, make([]uint32, end-len(ws))...)
	}
	m.img.Words = ws
	return ws[i : i+n]
}

// Read32 loads the aligned 32-bit word containing addr. Reads beyond the
// image are side-effect-free and return zero, like an unmapped page; only
// writes grow the image. (A read that grew the image would perturb its size
// — and therefore its content hash, which the simulation-result cache keys
// timing results by.)
func (m *GlobalMem) Read32(addr uint32) uint32 { return m.img.Read32(addr) }

// Write32 stores v to the aligned 32-bit word containing addr.
func (m *GlobalMem) Write32(addr uint32, v uint32) {
	i := int(addr / 4)
	if i >= m.img.Len {
		// Writes beyond the allocated space grow the image; hardware would
		// fault, but benchmarks under test deserve a usable zero rather
		// than a crash, and the functional tests verify addresses anyway.
		m.img.Len = i + i/2 + 4
	}
	m.writable(i, 1)[0] = v
}

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
	if i+n > m.img.Len {
		return nil, false
	}
	return m.writable(i, n), true
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

// MemSnapshot is a frozen GlobalMem image, taken by Snapshot and applied
// by Restore. The simulation-result cache stores one per cached timing
// result so that a cache hit can replay the kernel's memory side effects
// without re-simulating, and a FrozenMem holds one as the pristine input
// image its instances are restored from. Its words are never
// written: every image restored from it shares them until its own first
// write.
//
// Words holds the image only up to its last nonzero word: the zero tail —
// the slack Alloc's growth leaves past the high-water mark, and buffers
// nothing wrote yet — is not stored, and Len records the image's full
// word length.
type MemSnapshot struct {
	Words []uint32
	Len   int
	Next  uint32
}

// Snapshot returns a frozen copy of the image. An image that still shares
// a restored snapshot's words returns them without copying.
func (m *GlobalMem) Snapshot() MemSnapshot {
	s := m.img
	n := len(s.Words)
	for n > 0 && s.Words[n-1] == 0 {
		n--
	}
	s.Words = s.Words[:n:n]
	if !m.shared {
		s.Words = append([]uint32(nil), s.Words...)
	}
	return s
}

// Restore replaces the image with a snapshot's content: Len words, the
// stored ones followed by zeros. The image shares the snapshot's words
// until its first write, which copies them, so writes through the image
// never reach the snapshot.
func (m *GlobalMem) Restore(s MemSnapshot) {
	m.img, m.shared = s, true
	m.hasDigest = false
}

// Read32 loads the word containing addr from the snapshot's image, like
// GlobalMem.Read32 on the image Restore would rebuild.
func (s *MemSnapshot) Read32(addr uint32) uint32 {
	if i := int(addr / 4); i < len(s.Words) {
		return s.Words[i]
	}
	return 0
}

// ContentDigest returns the content digest of the image Restore rebuilds
// from the snapshot: a SHA-256 of the high-water mark and every word,
// slack included, each as its little-endian bytes. It is the one
// definition of an image's content digest.
func (s *MemSnapshot) ContentDigest() [32]byte {
	h := sha256.New()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], s.Next)
	h.Write(buf[:])
	s.writeImage(h)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// writeImage streams the image's Len words into w as their little-endian
// bytes: the stored words, then the zero tail.
func (s *MemSnapshot) writeImage(w io.Writer) {
	WriteWords(w, s.Words)
	for left := 4 * (s.Len - len(s.Words)); left > 0; left -= len(zeroBytes) {
		w.Write(zeroBytes[:min(left, len(zeroBytes))])
	}
}

// zeroBytes is the zero tail's source; it is only ever read.
var zeroBytes [4096]byte

// ContentDigest returns the image's content digest
// (MemSnapshot.ContentDigest). It is the image's MemHash in the
// simulation-result cache, and the digest SetDigest records.
func (m *GlobalMem) ContentDigest() [32]byte { return m.img.ContentDigest() }

// WriteImage streams the image's words into w as their little-endian
// bytes: all of them, the unstored zero tail included, as the simulation
// cache's keys hash them.
func (m *GlobalMem) WriteImage(w io.Writer) { m.img.writeImage(w) }

// SetDigest records d as the content digest of the image as it stands: the
// caller vouches that d is ContentDigest of the current high-water mark and
// words. Any later mutation — an allocation, a write, a Restore — drops it.
// The result cache sets it on the images it leaves behind and benchmarks
// on the instances they restore, so that a launch on an unchanged image
// can be keyed without rehashing its words.
func (m *GlobalMem) SetDigest(d [32]byte) { m.digest, m.hasDigest = d, true }

// Digest returns the digest recorded by SetDigest, and whether the image is
// unchanged since it was recorded.
func (m *GlobalMem) Digest() ([32]byte, bool) { return m.digest, m.hasDigest }

// FrozenMem is a pristine input image that instances start from: a
// MemSnapshot and its content digest, hashed once when the image is
// frozen. Every image Thaw returns shares the snapshot's words until its
// own first write and carries the digest, so the simulation-result cache
// keys its first launch without rehashing the image.
type FrozenMem struct {
	snap   MemSnapshot
	digest [32]byte
}

// Freeze returns m's image as it stands, with its content digest.
func Freeze(m *GlobalMem) FrozenMem {
	return FrozenMem{snap: m.Snapshot(), digest: m.ContentDigest()}
}

// Thaw returns a new image restored from f and carrying f's digest.
func (f *FrozenMem) Thaw() *GlobalMem {
	m := NewGlobalMem()
	m.Restore(f.snap)
	m.SetDigest(f.digest)
	return m
}

// Read32 loads the word containing addr from the frozen image.
func (f *FrozenMem) Read32(addr uint32) uint32 { return f.snap.Read32(addr) }

func f2b(v float32) uint32 { return math.Float32bits(v) }
func b2f(v uint32) float32 { return math.Float32frombits(v) }

// littleEndian reports whether the host stores a uint32 as its
// little-endian bytes, the encoding content digests and cache keys hash
// words in.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteWords streams a word slice into w as its little-endian bytes. On a
// little-endian host those are the words' own bytes, written in place;
// elsewhere writeWordsPortable converts them.
func WriteWords(w io.Writer, ws []uint32) {
	if !littleEndian {
		writeWordsPortable(w, ws)
		return
	}
	if len(ws) > 0 {
		w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), 4*len(ws)))
	}
}

// writeWordsPortable encodes words through a fixed chunk buffer, avoiding a
// full byte-slice materialization of multi-megabyte memory images.
func writeWordsPortable(w io.Writer, ws []uint32) {
	var buf [4096]byte
	for len(ws) > 0 {
		n := min(len(ws), len(buf)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], ws[i])
		}
		w.Write(buf[:4*n])
		ws = ws[n:]
	}
}

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
