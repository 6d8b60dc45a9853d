package kernel

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// fuzzProgram is the small program FuzzProgramValidate mutates: special,
// register, immediate and predicated operands, a memory op and an exit.
func fuzzProgram() *Program {
	b := NewBuilder("fuzz", 8).Params(1)
	b.SReg(0, SpecTidX)
	b.IMad(1, S(SpecCtaX), S(SpecNTidX), R(0))
	b.LdParam(2, 0)
	b.IShl(3, R(1), I(2))
	b.IAdd(2, R(2), R(3))
	b.ISet(4, CmpLT, R(1), I(100))
	b.When(4).St(SpaceGlobal, R(2), R(1), 0)
	b.Exit()
	return b.MustBuild()
}

// FuzzProgramValidate overwrites the fields of one instruction of
// fuzzProgram and checks that Validate never panics and that a program it
// accepts decodes and disassembles without panicking, naming every special
// register it reads.
func FuzzProgramValidate(f *testing.F) {
	// The unmutated IMad (pc 1, source slot 0).
	f.Add(uint8(1), uint8(OpIMad), 3, uint8(0), uint8(KindSpecial), uint8(0), uint8(SpecCtaX), uint8(1), int16(NoPred), uint8(0))
	// A predicated store reading a register.
	f.Add(uint8(6), uint8(OpSt), 2, uint8(1), uint8(KindReg), uint8(1), uint8(0), uint8(0), int16(4), uint8(0))
	// The unmutated ISet (pc 5).
	f.Add(uint8(5), uint8(OpISet), 2, uint8(0), uint8(KindReg), uint8(1), uint8(0), uint8(4), int16(NoPred), uint8(CmpLT))
	f.Fuzz(func(t *testing.T, pc, op uint8, numSrc int, slot, kind, reg, special, dst uint8, pred int16, cmp uint8) {
		p := fuzzProgram()
		in := &p.Instrs[int(pc)%len(p.Instrs)]
		in.Op = Op(op)
		in.NumSrc = numSrc
		src := &in.Src[int(slot)%len(in.Src)]
		src.Kind, src.Reg, src.Special = OperandKind(kind), reg, Special(special)
		in.Dst = dst
		in.Pred = pred
		in.Cmp = Cmp(cmp)
		if p.Validate() != nil {
			return
		}
		if len(p.Decoded()) != len(p.Instrs) {
			t.Fatalf("decoded %d of %d instructions", len(p.Decoded()), len(p.Instrs))
		}
		for pc, ins := range p.Instrs {
			text := ins.String()
			if strings.Contains(text, "PANIC=") {
				t.Fatalf("pc %d: accepted instruction disassembles as %s", pc, text)
			}
			for _, o := range ins.Src[:ins.NumSrc] {
				if o.Kind == KindSpecial && o.Special.String() == "sreg?" {
					t.Fatalf("pc %d: accepted %s reading unknown special register %d", pc, text, o.Special)
				}
			}
		}
	})
}

// FuzzSnapshotRoundTrip builds an image from raw words, a zero tail (stored
// or, as Alloc leaves it, unstored) and a high-water mark that may lie
// below the last words (out-of-range stores grow the words but not the
// mark), and checks that Restore(Snapshot(m)) rebuilds m exactly — length,
// words, Size and content digest — both into a fresh image and into a
// larger one whose old words must not survive, and that the snapshot's
// own digest is the rebuilt image's. Each restored image then takes one
// write, which must leave the snapshot it shares intact.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint16(5), uint32(512), uint16(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 9}, uint16(0), uint32(4), uint16(0))
	f.Add([]byte{}, uint16(7), uint32(256), uint16(40))
	f.Add([]byte{7, 7, 7}, uint16(1100), uint32(0), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, zeros uint16, next uint32, extra uint16) {
		ws := make([]uint32, len(raw)/4, len(raw)/4+int(zeros))
		for i := range ws {
			ws[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		n := len(ws) + int(zeros)
		if extra%2 == 1 {
			ws = append(ws, make([]uint32, zeros)...) // store the zero tail
		}
		m := &GlobalMem{img: MemSnapshot{Words: ws, Len: n, Next: next}}
		s := m.Snapshot()
		if k := len(s.Words); k > 0 && s.Words[k-1] == 0 {
			t.Fatalf("snapshot keeps a zero tail: %d stored words end in 0", k)
		}
		want := m.ContentDigest()
		if s.ContentDigest() != want {
			t.Fatal("snapshot digest differs from the image's")
		}
		stored := slices.Clone(s.Words)
		dirty := &GlobalMem{img: MemSnapshot{Words: make([]uint32, n+int(extra)), Len: n + int(extra), Next: ^next}}
		for i := range dirty.img.Words {
			dirty.img.Words[i] = 0xdeadbeef ^ uint32(i)
		}
		dirty.SetDigest([32]byte{1})
		for name, r := range map[string]*GlobalMem{"fresh": NewGlobalMem(), "dirty": dirty} {
			r.Restore(s)
			got := r.Snapshot()
			if got.Len != n || !slices.Equal(got.Words, stored) || r.Size() != m.Size() {
				t.Fatalf("%s: restored %d words (size %d), want %d (size %d) or different words",
					name, got.Len, r.Size(), n, m.Size())
			}
			for i := 0; i < n; i++ {
				if r.Read32(uint32(4*i)) != m.Read32(uint32(4*i)) {
					t.Fatalf("%s: restored word %d differs", name, i)
				}
			}
			if _, ok := r.Digest(); ok {
				t.Fatalf("%s: Restore kept a stale digest", name)
			}
			if r.ContentDigest() != want {
				t.Fatalf("%s: restored image digest differs", name)
			}
			r.Write32(uint32(4*(int(extra)%(n+1))), ^r.Read32(uint32(4*(int(extra)%(n+1)))))
			if !slices.Equal(s.Words, stored) || s.ContentDigest() != want {
				t.Fatalf("%s: writing the restored image changed its snapshot", name)
			}
		}
	})
}
