package kernel

import "testing"

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
	f.Add(uint8(1), uint8(OpIMad), 3, uint8(0), uint8(KindSpecial), uint8(0), uint8(SpecCtaX), uint8(1), int16(NoPred))
	// A predicated store reading a register.
	f.Add(uint8(6), uint8(OpSt), 2, uint8(1), uint8(KindReg), uint8(1), uint8(0), uint8(0), int16(4))
	f.Fuzz(func(t *testing.T, pc, op uint8, numSrc int, slot, kind, reg, special, dst uint8, pred int16) {
		p := fuzzProgram()
		in := &p.Instrs[int(pc)%len(p.Instrs)]
		in.Op = Op(op)
		in.NumSrc = numSrc
		src := &in.Src[int(slot)%len(in.Src)]
		src.Kind, src.Reg, src.Special = OperandKind(kind), reg, Special(special)
		in.Dst = dst
		in.Pred = pred
		if p.Validate() != nil {
			return
		}
		if len(p.Decoded()) != len(p.Instrs) {
			t.Fatalf("decoded %d of %d instructions", len(p.Decoded()), len(p.Instrs))
		}
		for pc, ins := range p.Instrs {
			text := ins.String()
			for _, o := range ins.Src[:ins.NumSrc] {
				if o.Kind == KindSpecial && o.Special.String() == "sreg?" {
					t.Fatalf("pc %d: accepted %s reading unknown special register %d", pc, text, o.Special)
				}
			}
		}
	})
}
