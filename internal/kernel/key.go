package kernel

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// instrKeyBytes is the encoded size of one instruction in a program's key
// encoding.
const instrKeyBytes = 14 + 3*8 + 2*8

// AppendKey appends the program's key encoding to b and returns it: every
// field that determines how the program executes, in a fixed
// little-endian layout. The name is presentation, not timing input, and
// is left out. The simulation-result cache writes this encoding into its
// full keys, and Digest hashes it.
func (p *Program) AppendKey(b []byte) []byte {
	b = slices.Grow(b, 4*8+len(p.Instrs)*instrKeyBytes)
	b = appendI64(b, p.NumRegs)
	b = appendI64(b, p.SMemBytes)
	b = appendI64(b, p.NumParams)
	b = appendI64(b, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(in.Op)|uint32(in.Dst)<<16|uint32(in.NumSrc)<<24)
		flags := byte(0)
		if in.HasDst {
			flags |= 1
		}
		if in.PredNeg {
			flags |= 2
		}
		b = append(b, flags, byte(in.Cmp), byte(in.Space), 0)
		b = binary.LittleEndian.AppendUint16(b, uint16(in.Pred))
		b = binary.LittleEndian.AppendUint32(b, uint32(in.Offset))
		for s := 0; s < 3; s++ {
			o := &in.Src[s]
			b = binary.LittleEndian.AppendUint32(b, uint32(o.Kind)|uint32(o.Reg)<<8|uint32(o.Special)<<16)
			b = binary.LittleEndian.AppendUint32(b, o.Imm)
		}
		b = appendI64(b, in.Target)
		b = appendI64(b, in.Reconv)
	}
	return b
}

// Digest returns the SHA-256 of the program's key encoding (AppendKey),
// computing it on first use. Like the decode table it is content-derived
// and built once behind a latch, so it relies on the program being
// immutable once used (see Program).
func (p *Program) Digest() [32]byte {
	p.digestOnce.Do(func() { p.digest = sha256.Sum256(p.AppendKey(nil)) })
	return p.digest
}

// appendI64 appends v as 8 little-endian bytes, the key encoding's
// integer form.
func appendI64(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}
