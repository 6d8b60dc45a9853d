// Package kernel defines the compact SIMT instruction set that GPGPU
// workloads are written in, together with a builder for assembling programs
// and the functional (lane-level) execution machinery shared by the
// functional interpreter and the cycle-level simulator.
//
// The ISA is a PTX-like register machine: each thread owns a set of 32-bit
// general registers; warps of 32 threads execute in lock step under an
// active mask maintained by a stack-based reconvergence mechanism (per the
// NVIDIA patent the paper cites). Instructions carry an optional predicate
// register, and branches carry an explicit reconvergence point (the
// immediate post-dominator, supplied by the program author through the
// builder's label mechanism).
package kernel

import (
	"fmt"
	"sync"
)

// WarpSize is the number of threads per warp. Both modeled GPUs use 32.
const WarpSize = 32

// FullMask is the active mask with all lanes enabled.
const FullMask uint32 = 0xFFFFFFFF

// Op enumerates instruction opcodes.
type Op uint8

const (
	OpNop Op = iota

	// Integer ALU (32-bit, wrapping).
	OpIAdd // d = a + b
	OpISub // d = a - b
	OpIMul // d = a * b (low 32 bits)
	OpIMad // d = a*b + c
	OpIMin // d = min(a, b) signed
	OpIMax // d = max(a, b) signed
	OpIAnd // d = a & b
	OpIOr  // d = a | b
	OpIXor // d = a ^ b
	OpINot // d = ^a
	OpIShl // d = a << (b & 31)
	OpIShr // d = a >> (b & 31) logical
	OpISra // d = a >> (b & 31) arithmetic
	OpISet // d = (a CMP b) ? 1 : 0, signed compare
	OpISel // d = (a != 0) ? b : c
	OpMov  // d = a

	// Floating point (IEEE binary32 carried in the 32-bit registers).
	OpFAdd // d = a + b
	OpFSub // d = a - b
	OpFMul // d = a * b
	OpFFma // d = a*b + c
	OpFMin // d = min(a, b)
	OpFMax // d = max(a, b)
	OpFNeg // d = -a
	OpFAbs // d = |a|
	OpFSet // d = (a CMP b) ? 1 : 0, float compare
	OpI2F  // d = float(int(a))
	OpF2I  // d = int(trunc(float(a)))

	// Special function unit (transcendentals).
	OpRcp  // d = 1/a
	OpRsq  // d = 1/sqrt(a)
	OpSqrt // d = sqrt(a)
	OpSin  // d = sin(a)
	OpCos  // d = cos(a)
	OpEx2  // d = 2^a
	OpLg2  // d = log2(a)

	// Memory. Address = value(Src[0]) + Offset. Ld: d = [addr]; St: [addr] = value(Src[1]).
	OpLd
	OpSt
	OpAtomAdd // d = old [addr]; [addr] += value(Src[1]); global space only

	// Control.
	OpBra  // divergence-aware branch: lanes with true predicate go to Target
	OpBar  // block-wide barrier
	OpExit // thread termination
)

var opNames = map[Op]string{
	OpNop: "nop", OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpIMad: "imad",
	OpIMin: "imin", OpIMax: "imax", OpIAnd: "iand", OpIOr: "ior", OpIXor: "ixor",
	OpINot: "inot", OpIShl: "ishl", OpIShr: "ishr", OpISra: "isra", OpISet: "iset",
	OpISel: "isel", OpMov: "mov",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFFma: "ffma", OpFMin: "fmin",
	OpFMax: "fmax", OpFNeg: "fneg", OpFAbs: "fabs", OpFSet: "fset", OpI2F: "i2f", OpF2I: "f2i",
	OpRcp: "rcp", OpRsq: "rsq", OpSqrt: "sqrt", OpSin: "sin", OpCos: "cos", OpEx2: "ex2", OpLg2: "lg2",
	OpLd: "ld", OpSt: "st", OpAtomAdd: "atom.add",
	OpBra: "bra", OpBar: "bar.sync", OpExit: "exit",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class is the functional-unit class of an opcode; the simulator uses it to
// route instructions to pipelines and the power model to select energies.
type Class uint8

const (
	ClassInt Class = iota
	ClassFP
	ClassSFU
	ClassMem
	ClassCtrl
)

func (c Class) String() string {
	switch c {
	case ClassInt:
		return "INT"
	case ClassFP:
		return "FP"
	case ClassSFU:
		return "SFU"
	case ClassMem:
		return "MEM"
	case ClassCtrl:
		return "CTRL"
	}
	return "?"
}

// ClassOf returns the functional-unit class of an opcode.
func ClassOf(op Op) Class {
	switch op {
	case OpIAdd, OpISub, OpIMul, OpIMad, OpIMin, OpIMax, OpIAnd, OpIOr, OpIXor,
		OpINot, OpIShl, OpIShr, OpISra, OpISet, OpISel, OpMov:
		return ClassInt
	case OpFAdd, OpFSub, OpFMul, OpFFma, OpFMin, OpFMax, OpFNeg, OpFAbs, OpFSet, OpI2F, OpF2I:
		return ClassFP
	case OpRcp, OpRsq, OpSqrt, OpSin, OpCos, OpEx2, OpLg2:
		return ClassSFU
	case OpLd, OpSt, OpAtomAdd:
		return ClassMem
	default:
		return ClassCtrl
	}
}

// Space selects the memory segment of a Ld/St.
type Space uint8

const (
	SpaceGlobal Space = iota
	SpaceShared
	SpaceConst // read-only constant segment (cached)
	SpaceParam // kernel parameter bank (serviced by the constant cache)
	// SpaceTexture reads global memory through the texture cache: the
	// read-only, spatially-cached path the paper defers to "a future
	// variant of the model".
	SpaceTexture
)

func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceConst:
		return "const"
	case SpaceParam:
		return "param"
	case SpaceTexture:
		return "texture"
	}
	return "?"
}

// Cmp is a comparison operator for ISet / FSet.
type Cmp uint8

const (
	CmpEQ Cmp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c Cmp) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[c]
}

// Special enumerates read-only per-thread identification registers.
type Special uint8

const (
	SpecTidX Special = iota
	SpecTidY
	SpecNTidX
	SpecNTidY
	SpecCtaX
	SpecCtaY
	SpecNCtaX
	SpecNCtaY
	SpecLane
	SpecWarpInBlock
)

// OperandKind tags an Operand.
type OperandKind uint8

const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindSpecial
)

// Operand is a source operand: a register, 32-bit immediate, or special register.
type Operand struct {
	Kind    OperandKind
	Reg     uint8
	Imm     uint32
	Special Special
}

// R makes a register operand.
func R(i int) Operand { return Operand{Kind: KindReg, Reg: uint8(i)} }

// I makes an integer immediate operand.
func I(v int32) Operand { return Operand{Kind: KindImm, Imm: uint32(v)} }

// U makes an unsigned immediate operand.
func U(v uint32) Operand { return Operand{Kind: KindImm, Imm: v} }

// F makes a float32 immediate operand.
func F(v float32) Operand { return Operand{Kind: KindImm, Imm: f2b(v)} }

// S makes a special-register operand.
func S(s Special) Operand { return Operand{Kind: KindSpecial, Special: s} }

// NoPred marks an instruction as unpredicated.
const NoPred int16 = -1

// Instr is one machine instruction.
type Instr struct {
	Op      Op
	Dst     uint8
	HasDst  bool
	Src     [3]Operand
	NumSrc  int
	Pred    int16 // register index holding the predicate, or NoPred
	PredNeg bool  // execute when predicate is zero instead
	Cmp     Cmp   // for ISet/FSet
	Space   Space // for Ld/St/AtomAdd
	Offset  int32 // byte offset added to the address register
	Target  int   // branch target PC (resolved by the builder)
	Reconv  int   // reconvergence PC for divergent branches
}

// SrcRegs appends the general registers read by the instruction to dst and
// returns it (used by the scoreboard and the register-file activity model).
func (in *Instr) SrcRegs(dst []uint8) []uint8 {
	for i := 0; i < in.NumSrc; i++ {
		if in.Src[i].Kind == KindReg {
			dst = append(dst, in.Src[i].Reg)
		}
	}
	if in.Pred != NoPred {
		dst = append(dst, uint8(in.Pred))
	}
	return dst
}

// Program is an assembled kernel.
type Program struct {
	Name string
	// Instrs is the instruction stream; PCs index into it.
	Instrs []Instr
	// NumRegs is the number of general registers each thread uses.
	NumRegs int
	// SMemBytes is the static shared-memory allocation per block.
	SMemBytes int
	// NumParams is the number of 32-bit kernel parameters expected.
	NumParams int

	// decodeOnce guards the lazy build of dec; see Decoded in decode.go.
	// Programs are assembled once by the builder and shared by pointer, so
	// the latch also makes concurrent first executions race-free.
	decodeOnce sync.Once
	dec        []DInstr
}

// Validate checks structural well-formedness of the program.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("kernel: program without name")
	}
	if len(p.Instrs) == 0 {
		return fmt.Errorf("kernel %s: empty program", p.Name)
	}
	if p.NumRegs <= 0 || p.NumRegs > 256 {
		return fmt.Errorf("kernel %s: NumRegs %d outside (0,256]", p.Name, p.NumRegs)
	}
	sawExit := false
	for pc, in := range p.Instrs {
		if in.HasDst && int(in.Dst) >= p.NumRegs {
			return fmt.Errorf("kernel %s: pc %d writes r%d >= NumRegs %d", p.Name, pc, in.Dst, p.NumRegs)
		}
		if in.NumSrc < 0 || in.NumSrc > len(in.Src) {
			return fmt.Errorf("kernel %s: pc %d has %d sources, want 0..%d", p.Name, pc, in.NumSrc, len(in.Src))
		}
		for i, o := range in.Src[:in.NumSrc] {
			switch {
			case o.Kind > KindSpecial:
				return fmt.Errorf("kernel %s: pc %d source %d has operand kind %d", p.Name, pc, i, o.Kind)
			case o.Kind == KindReg && int(o.Reg) >= p.NumRegs:
				return fmt.Errorf("kernel %s: pc %d reads r%d >= NumRegs %d", p.Name, pc, o.Reg, p.NumRegs)
			case o.Kind == KindSpecial && o.Special > SpecWarpInBlock:
				return fmt.Errorf("kernel %s: pc %d source %d reads unknown special register %d", p.Name, pc, i, o.Special)
			}
		}
		if (in.Op == OpISet || in.Op == OpFSet) && in.Cmp > CmpGE {
			return fmt.Errorf("kernel %s: pc %d compares with unknown operator %d", p.Name, pc, in.Cmp)
		}
		if in.Pred < NoPred || int(in.Pred) >= p.NumRegs {
			return fmt.Errorf("kernel %s: pc %d predicated on r%d outside [0,NumRegs %d)", p.Name, pc, in.Pred, p.NumRegs)
		}
		if in.Op == OpBra {
			if in.Target < 0 || in.Target > len(p.Instrs) {
				return fmt.Errorf("kernel %s: pc %d branch target %d out of range", p.Name, pc, in.Target)
			}
			if in.Reconv < 0 || in.Reconv > len(p.Instrs) {
				return fmt.Errorf("kernel %s: pc %d reconvergence %d out of range", p.Name, pc, in.Reconv)
			}
		}
		if in.Op == OpExit {
			sawExit = true
		}
	}
	if !sawExit {
		return fmt.Errorf("kernel %s: no exit instruction", p.Name)
	}
	return nil
}

// Dim is a 2-D extent (threads per block or blocks per grid).
type Dim struct{ X, Y int }

// Count returns X*Y.
func (d Dim) Count() int { return d.X * d.Y }

// Launch describes one kernel invocation.
type Launch struct {
	Prog *Program
	// Grid and Block extents.
	Grid, Block Dim
	// Params are the 32-bit kernel arguments (pointers are global addresses).
	Params []uint32
	// DynSMemBytes is extra dynamic shared memory per block.
	DynSMemBytes int
}

// Validate checks the launch against the program.
func (l *Launch) Validate() error {
	if l.Prog == nil {
		return fmt.Errorf("kernel: launch without program")
	}
	if err := l.Prog.Validate(); err != nil {
		return err
	}
	if l.Grid.X <= 0 || l.Grid.Y <= 0 || l.Block.X <= 0 || l.Block.Y <= 0 {
		return fmt.Errorf("kernel %s: non-positive launch dimensions %+v %+v", l.Prog.Name, l.Grid, l.Block)
	}
	if l.Block.Count() > 1024 {
		return fmt.Errorf("kernel %s: block of %d threads exceeds 1024", l.Prog.Name, l.Block.Count())
	}
	if len(l.Params) != l.Prog.NumParams {
		return fmt.Errorf("kernel %s: got %d params, program expects %d", l.Prog.Name, len(l.Params), l.Prog.NumParams)
	}
	return nil
}

// ThreadsPerBlock returns the block size in threads.
func (l *Launch) ThreadsPerBlock() int { return l.Block.Count() }

// WarpsPerBlock returns the number of warps per block (rounded up).
func (l *Launch) WarpsPerBlock() int {
	return (l.Block.Count() + WarpSize - 1) / WarpSize
}

// SMemBytes returns the total per-block shared memory demand.
func (l *Launch) SMemBytes() int { return l.Prog.SMemBytes + l.DynSMemBytes }
