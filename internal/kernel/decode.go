package kernel

// Decoded instruction tables.
//
// The cycle-level simulator executes the same static instruction millions
// of times; Instr is builder-friendly, not executor-friendly, so every
// execution used to re-derive the functional-unit class, re-walk the
// operand descriptors per lane, and re-collect the register-read set per
// issue. DInstr is the execution-oriented view, computed once per program:
// the scoreboard and register-file accounting sets, and for every source
// where its 32 lane values come from. A register source is a flat offset
// into Warp.Regs (a register operand is a contiguous WarpSize-word row);
// an immediate is its value; a special register (%tid.x, %ctaid.y, ...)
// is a bit in specMask plus its identity, and the executor fills a lane
// row for it from the warp and block coordinates (Warp.specialRows). The
// executor therefore sees every source as a row or an immediate.

// DInstr is the decoded form of one instruction.
type DInstr struct {
	// Class is the functional-unit class (ClassOf, precomputed).
	Class Class
	// SrcRegs lists the general registers the instruction reads — the
	// predicate register included — in the order Instr.SrcRegs reports
	// them; NSrc is its length. This is the register-file/operand-collector
	// accounting set.
	SrcRegs [4]uint8
	// NSrc is the number of valid entries in SrcRegs.
	NSrc uint8
	// HazRegs extends SrcRegs with the destination register; NHaz is its
	// length. This is the scoreboard-comparison set.
	HazRegs [5]uint8
	// NHaz is the number of valid entries in HazRegs.
	NHaz uint8

	// srcOff[i] is the flat Regs offset of source i's register row, or -1
	// when source i is a special register, the immediate srcImm[i], or
	// absent.
	srcOff [3]int32
	// srcImm[i] is the immediate value of source i when srcOff[i] < 0 and
	// bit i of specMask is clear.
	srcImm [3]uint32
	// specMask has bit i set when source i reads the special register
	// spec[i].
	specMask uint8
	spec     [3]Special
	// dstOff is the flat Regs offset of the destination row, -1 if none.
	dstOff int32
	// predOff is the flat Regs offset of the predicate row, -1 if the
	// instruction is unpredicated.
	predOff int32
}

// decode builds the DInstr for one instruction.
func decode(in *Instr) DInstr {
	d := DInstr{Class: ClassOf(in.Op), dstOff: -1, predOff: -1}
	var buf [4]uint8
	srcs := in.SrcRegs(buf[:0])
	copy(d.SrcRegs[:], srcs)
	d.NSrc = uint8(len(srcs))
	copy(d.HazRegs[:], srcs)
	d.NHaz = d.NSrc
	if in.HasDst {
		d.HazRegs[d.NHaz] = in.Dst
		d.NHaz++
		d.dstOff = int32(in.Dst) * WarpSize
	}
	if in.Pred != NoPred {
		d.predOff = int32(in.Pred) * WarpSize
	}
	for i := 0; i < 3; i++ {
		d.srcOff[i] = -1
		if i >= in.NumSrc {
			continue
		}
		switch in.Src[i].Kind {
		case KindReg:
			d.srcOff[i] = int32(in.Src[i].Reg) * WarpSize
		case KindImm, KindNone:
			d.srcImm[i] = in.Src[i].Imm
		case KindSpecial:
			d.specMask |= 1 << i
			d.spec[i] = in.Src[i].Special
		}
	}
	return d
}

// Decoded returns the program's decoded instruction table, building it on
// first use. The table is content-derived from Instrs and never mutated
// after construction, so concurrent executors share one build (guarded by
// the program's decode latch).
func (p *Program) Decoded() []DInstr {
	p.decodeOnce.Do(func() {
		dec := make([]DInstr, len(p.Instrs))
		for i := range p.Instrs {
			dec[i] = decode(&p.Instrs[i])
		}
		p.dec = dec
	})
	return p.dec
}
