package kernel

import (
	"fmt"
	"math"
	"math/bits"
)

// Token is one entry of the per-warp reconvergence stack: an execution PC,
// the reconvergence PC at which this control-flow path merges back, and the
// active mask of lanes following the path (paper Fig. 2, after the Coon &
// Lindholm patent).
type Token struct {
	PC     int
	Reconv int // merge PC; -1 for the bottom-of-stack token
	Mask   uint32
}

// BlockCtx identifies a thread block within a launch.
type BlockCtx struct {
	CtaX, CtaY int
	Launch     *Launch
	// Shared is the block's shared-memory image (word-addressed).
	Shared []uint32
}

// NewBlockCtx prepares the execution context of one block.
func NewBlockCtx(l *Launch, ctaX, ctaY int) *BlockCtx {
	b := &BlockCtx{}
	b.Reset(l, ctaX, ctaY)
	return b
}

// Reset repoints a recycled block context at a new block, zeroing the
// shared-memory image. The simulator pools contexts per core so
// steady-state block turnover stops allocating; a context must never carry
// shared-memory state from the block that previously owned it (pinned by
// the sim package's pooled-state aliasing test).
func (b *BlockCtx) Reset(l *Launch, ctaX, ctaY int) {
	b.CtaX, b.CtaY, b.Launch = ctaX, ctaY, l
	need := (l.SMemBytes() + 3) / 4
	// A fresh context allocates even when need is 0, so a recycled one
	// (non-nil Shared) and a new one stay deeply equal.
	if b.Shared != nil && cap(b.Shared) >= need {
		b.Shared = b.Shared[:need]
		clear(b.Shared)
	} else {
		b.Shared = make([]uint32, need)
	}
}

// Env bundles the memories a warp needs during execution.
type Env struct {
	Global *GlobalMem
	Const  *ConstMem
	Block  *BlockCtx
}

// Warp is the architectural state of one warp: per-lane registers and the
// reconvergence stack.
type Warp struct {
	// IDInBlock is the warp's index within its block.
	IDInBlock int
	// Regs holds NumRegs*WarpSize registers, lane-major: register r of lane
	// l is Regs[r*WarpSize+l].
	Regs []uint32
	// Stack is the reconvergence stack; the top is the last element.
	Stack []Token
	// AtBarrier is set while the warp waits at a block barrier.
	AtBarrier bool
	// Finished is set when all lanes have exited.
	Finished bool
}

// NewWarp creates a warp with the given number of live lanes (1..WarpSize).
func NewWarp(idInBlock, liveLanes, numRegs int) *Warp {
	w := &Warp{}
	w.Reset(idInBlock, liveLanes, numRegs)
	return w
}

// Reset reinitialises a recycled warp to NewWarp's state: registers
// zeroed, a single bottom-of-stack token, flags cleared. The simulator
// pools warps per core; recycled register files and token stacks must be
// indistinguishable from fresh ones (pinned by the sim package's
// pooled-state aliasing test).
func (w *Warp) Reset(idInBlock, liveLanes, numRegs int) {
	if liveLanes <= 0 || liveLanes > WarpSize {
		panic(fmt.Sprintf("kernel: warp with %d lanes", liveLanes))
	}
	regs := w.Regs
	if len(regs) == numRegs*WarpSize {
		clear(regs)
	} else {
		regs = make([]uint32, numRegs*WarpSize)
	}
	mask := FullMask >> (WarpSize - liveLanes)
	*w = Warp{
		IDInBlock: idInBlock,
		Regs:      regs,
		Stack:     append(w.Stack[:0], Token{PC: 0, Reconv: -1, Mask: mask}),
	}
}

// Top returns the active token. Panics if the warp has finished.
func (w *Warp) Top() *Token { return &w.Stack[len(w.Stack)-1] }

// PC returns the current program counter.
func (w *Warp) PC() int { return w.Top().PC }

// ActiveMask returns the current lane mask.
func (w *Warp) ActiveMask() uint32 { return w.Top().Mask }

// StackDepth returns the reconvergence-stack depth.
func (w *Warp) StackDepth() int { return len(w.Stack) }

// StepInfo reports what one instruction execution did; the cycle-level
// simulator converts it into timing and activity.
type StepInfo struct {
	// Instr is the executed instruction.
	Instr *Instr
	// PC is the program counter the instruction was fetched from.
	PC int
	// ExecMask is the set of lanes that performed the operation (active mask
	// AND predicate).
	ExecMask uint32
	// ActiveLanes is the popcount of ExecMask.
	ActiveLanes int
	// Addrs holds, for memory operations, the byte address accessed by each
	// executing lane (indexed by lane; only lanes in ExecMask are valid).
	Addrs [WarpSize]uint32
	// Diverged is set when a branch split the warp.
	Diverged bool
	// Reconverged counts stack pops performed after this instruction.
	Reconverged int
	// Finished is set when the warp fully exited.
	Finished bool
	// AtBarrier is set when the warp stopped at a barrier.
	AtBarrier bool
}

// Exec executes the warp's current instruction functionally, advances
// control flow and writes what it did into info for the timing model. Every
// field is overwritten except Addrs, which is written on the executing lanes
// of a memory instruction only — the lanes StepInfo documents as valid — so
// a caller may reuse one StepInfo across calls. Calling Exec on a finished
// warp or one waiting at a barrier is a programming error; on error the
// contents of info are unspecified.
func (w *Warp) Exec(p *Program, env *Env, info *StepInfo) error {
	if w.Finished {
		return fmt.Errorf("kernel %s: exec on finished warp", p.Name)
	}
	if w.AtBarrier {
		return fmt.Errorf("kernel %s: exec on warp at barrier", p.Name)
	}
	top := w.Top()
	pc := top.PC
	if pc < 0 || pc >= len(p.Instrs) {
		return fmt.Errorf("kernel %s: pc %d out of range (missing exit?)", p.Name, pc)
	}
	in := &p.Instrs[pc]
	d := &p.Decoded()[pc]
	info.Instr, info.PC = in, pc
	info.Diverged, info.Reconverged = false, 0
	info.Finished, info.AtBarrier = false, false

	// Predicate resolution: build the set-lane mask branch-free over the
	// contiguous predicate-register row, then mask with the active lanes
	// (reading an inactive lane's predicate is harmless).
	execMask := top.Mask
	if d.predOff >= 0 {
		preds := w.Regs[d.predOff : d.predOff+WarpSize]
		var pm uint32
		for l, v := range preds {
			var bit uint32
			if v != 0 {
				bit = 1
			}
			pm |= bit << l
		}
		if in.PredNeg {
			pm = ^pm
		}
		execMask = top.Mask & pm
	}
	info.ExecMask = execMask
	info.ActiveLanes = bits.OnesCount32(execMask)

	switch in.Op {
	case OpBra:
		w.execBranch(in, execMask, info)
	case OpExit:
		// Remove executing lanes from every stack level.
		for i := range w.Stack {
			w.Stack[i].Mask &^= execMask
		}
		top.PC++
		w.popEmptyAndMerged(info)
	case OpBar:
		if execMask != 0 {
			w.AtBarrier = true
			info.AtBarrier = true
		}
		top.PC++
		w.popMerged(info)
	default:
		if err := w.execData(in, d, execMask, env, info); err != nil {
			return err
		}
		top.PC++
		w.popMerged(info)
	}

	if len(w.Stack) == 0 || w.Top().Mask == 0 && len(w.Stack) == 1 {
		w.Finished = true
		info.Finished = true
	}
	return nil
}

// execBranch implements the stack-based divergence mechanism.
func (w *Warp) execBranch(in *Instr, takenMask uint32, info *StepInfo) {
	top := w.Top()
	notTaken := top.Mask &^ takenMask
	switch {
	case takenMask == 0: // uniform fall-through
		top.PC++
	case notTaken == 0: // uniform taken
		top.PC = in.Target
	default: // divergence
		info.Diverged = true
		fallPC := top.PC + 1
		// The current token becomes the reconvergence continuation.
		top.PC = in.Reconv
		// A token whose PC already equals its reconvergence point would pop
		// without executing anything, so it is never materialised; this keeps
		// the stack depth bounded by the nesting depth rather than by the
		// number of divergent loop iterations.
		if top.Reconv >= 0 && top.PC == top.Reconv {
			w.Stack = w.Stack[:len(w.Stack)-1]
		}
		if fallPC != in.Reconv {
			w.Stack = append(w.Stack, Token{PC: fallPC, Reconv: in.Reconv, Mask: notTaken})
		}
		if in.Target != in.Reconv {
			w.Stack = append(w.Stack, Token{PC: in.Target, Reconv: in.Reconv, Mask: takenMask})
		}
	}
	w.popMerged(info)
}

// popMerged pops tokens whose PC reached their reconvergence point.
func (w *Warp) popMerged(info *StepInfo) {
	for len(w.Stack) > 1 {
		t := w.Top()
		if t.Reconv >= 0 && t.PC == t.Reconv {
			w.Stack = w.Stack[:len(w.Stack)-1]
			info.Reconverged++
			continue
		}
		if t.Mask == 0 {
			w.Stack = w.Stack[:len(w.Stack)-1]
			info.Reconverged++
			continue
		}
		break
	}
}

// popEmptyAndMerged additionally drops empty tokens after an Exit.
func (w *Warp) popEmptyAndMerged(info *StepInfo) {
	w.popMerged(info)
	for len(w.Stack) > 1 && w.Top().Mask == 0 {
		w.Stack = w.Stack[:len(w.Stack)-1]
		info.Reconverged++
		w.popMerged(info)
	}
}

// ReleaseBarrier resumes a warp stopped at a barrier.
func (w *Warp) ReleaseBarrier() { w.AtBarrier = false }

// The data-path executor.
//
// execData runs a non-control instruction over its decoded table entry:
// each source resolves once per instruction to a 32-lane row (a slice of
// Warp.Regs for a register, a row specialRows fills for a special
// register) or to an immediate, so the per-lane work is indexed loads and
// the arithmetic switch. Lanes run in ascending set-bit order, which keeps
// lane-ordered effects such as AtomAdd deterministic.

// pickOperand reads source lane l from a resolved operand: the row when
// non-nil, the immediate otherwise. Small enough to inline.
func pickOperand(row []uint32, imm uint32, l int) uint32 {
	if row != nil {
		return row[l]
	}
	return imm
}

// srcRow resolves decoded source i to its lane row: a register row, the
// row spec holds for a special register, or nil for an immediate.
func (w *Warp) srcRow(d *DInstr, i int, spec *[3][WarpSize]uint32) []uint32 {
	if off := d.srcOff[i]; off >= 0 {
		return w.Regs[off : off+WarpSize]
	}
	if d.specMask&(1<<i) != 0 {
		return spec[i][:]
	}
	return nil
}

// specialRows fills spec[i] with every lane's value of special register
// d.spec[i], for each special-register source i of d. Program.Validate
// rejects any Special value outside the switch.
func (w *Warp) specialRows(d *DInstr, b *BlockCtx, spec *[3][WarpSize]uint32) {
	launch := b.Launch
	tid0 := w.IDInBlock * WarpSize
	for i := range spec {
		if d.specMask&(1<<i) == 0 {
			continue
		}
		row := &spec[i]
		var v uint32 // the value of a register uniform across the warp
		switch d.spec[i] {
		case SpecTidX:
			for l := range row {
				row[l] = uint32((tid0 + l) % launch.Block.X)
			}
			continue
		case SpecTidY:
			for l := range row {
				row[l] = uint32((tid0 + l) / launch.Block.X)
			}
			continue
		case SpecLane:
			for l := range row {
				row[l] = uint32(l)
			}
			continue
		case SpecNTidX:
			v = uint32(launch.Block.X)
		case SpecNTidY:
			v = uint32(launch.Block.Y)
		case SpecCtaX:
			v = uint32(b.CtaX)
		case SpecCtaY:
			v = uint32(b.CtaY)
		case SpecNCtaX:
			v = uint32(launch.Grid.X)
		case SpecNCtaY:
			v = uint32(launch.Grid.Y)
		case SpecWarpInBlock:
			v = uint32(w.IDInBlock)
		}
		for l := range row {
			row[l] = v
		}
	}
}

// execData executes a non-control instruction for all lanes in execMask.
func (w *Warp) execData(in *Instr, d *DInstr, execMask uint32, env *Env, info *StepInfo) error {
	// Special-register rows are built on the stack, and only for an
	// instruction that reads one: the common path zeroes no array.
	var spec *[3][WarpSize]uint32
	if d.specMask != 0 {
		spec = new([3][WarpSize]uint32)
		w.specialRows(d, env.Block, spec)
	}
	aRow := w.srcRow(d, 0, spec)
	bRow := w.srcRow(d, 1, spec)
	cRow := w.srcRow(d, 2, spec)
	aImm, bImm, cImm := d.srcImm[0], d.srcImm[1], d.srcImm[2]
	var dRow []uint32
	if d.dstOff >= 0 {
		dRow = w.Regs[d.dstOff : d.dstOff+WarpSize]
	}

	for rem := execMask; rem != 0; rem &= rem - 1 {
		l := bits.TrailingZeros32(rem)
		a := pickOperand(aRow, aImm, l)

		var v uint32
		switch in.Op {
		case OpNop:
			continue
		case OpMov:
			v = a
		case OpIAdd:
			v = a + pickOperand(bRow, bImm, l)
		case OpISub:
			v = a - pickOperand(bRow, bImm, l)
		case OpIMul:
			v = a * pickOperand(bRow, bImm, l)
		case OpIMad:
			v = a*pickOperand(bRow, bImm, l) + pickOperand(cRow, cImm, l)
		case OpIMin:
			b := pickOperand(bRow, bImm, l)
			if int32(a) < int32(b) {
				v = a
			} else {
				v = b
			}
		case OpIMax:
			b := pickOperand(bRow, bImm, l)
			if int32(a) > int32(b) {
				v = a
			} else {
				v = b
			}
		case OpIAnd:
			v = a & pickOperand(bRow, bImm, l)
		case OpIOr:
			v = a | pickOperand(bRow, bImm, l)
		case OpIXor:
			v = a ^ pickOperand(bRow, bImm, l)
		case OpINot:
			v = ^a
		case OpIShl:
			v = a << (pickOperand(bRow, bImm, l) & 31)
		case OpIShr:
			v = a >> (pickOperand(bRow, bImm, l) & 31)
		case OpISra:
			v = uint32(int32(a) >> (pickOperand(bRow, bImm, l) & 31))
		case OpISet:
			v = boolTo32(cmpI(in.Cmp, int32(a), int32(pickOperand(bRow, bImm, l))))
		case OpISel:
			if a != 0 {
				v = pickOperand(bRow, bImm, l)
			} else {
				v = pickOperand(cRow, cImm, l)
			}
		case OpFAdd:
			v = f2b(b2f(a) + b2f(pickOperand(bRow, bImm, l)))
		case OpFSub:
			v = f2b(b2f(a) - b2f(pickOperand(bRow, bImm, l)))
		case OpFMul:
			v = f2b(b2f(a) * b2f(pickOperand(bRow, bImm, l)))
		case OpFFma:
			v = f2b(float32(float64(float64(b2f(a))*float64(b2f(pickOperand(bRow, bImm, l)))) + float64(b2f(pickOperand(cRow, cImm, l)))))
		case OpFMin:
			v = f2b(float32(math.Min(float64(b2f(a)), float64(b2f(pickOperand(bRow, bImm, l))))))
		case OpFMax:
			v = f2b(float32(math.Max(float64(b2f(a)), float64(b2f(pickOperand(bRow, bImm, l))))))
		case OpFNeg:
			v = f2b(-b2f(a))
		case OpFAbs:
			v = f2b(float32(math.Abs(float64(b2f(a)))))
		case OpFSet:
			v = boolTo32(cmpF(in.Cmp, b2f(a), b2f(pickOperand(bRow, bImm, l))))
		case OpI2F:
			v = f2b(float32(int32(a)))
		case OpF2I:
			v = uint32(int32(b2f(a)))
		case OpRcp:
			v = f2b(1 / b2f(a))
		case OpRsq:
			v = f2b(float32(1 / math.Sqrt(float64(b2f(a)))))
		case OpSqrt:
			v = f2b(float32(math.Sqrt(float64(b2f(a)))))
		case OpSin:
			v = f2b(float32(math.Sin(float64(b2f(a)))))
		case OpCos:
			v = f2b(float32(math.Cos(float64(b2f(a)))))
		case OpEx2:
			v = f2b(float32(math.Exp2(float64(b2f(a)))))
		case OpLg2:
			v = f2b(float32(math.Log2(float64(b2f(a)))))
		case OpLd, OpSt, OpAtomAdd:
			addr := a + uint32(in.Offset)
			info.Addrs[l] = addr
			switch in.Op {
			case OpLd:
				lv, err := w.load(in.Space, addr, env)
				if err != nil {
					return err
				}
				v = lv
			case OpSt:
				b := pickOperand(bRow, bImm, l)
				if err := w.store(in.Space, addr, b, env); err != nil {
					return err
				}
				continue
			case OpAtomAdd:
				b := pickOperand(bRow, bImm, l)
				old := env.Global.Read32(addr)
				env.Global.Write32(addr, old+b)
				v = old
			}
		default:
			return fmt.Errorf("kernel: unimplemented op %v", in.Op)
		}
		if dRow != nil {
			dRow[l] = v
		}
	}
	return nil
}

func (w *Warp) load(space Space, addr uint32, env *Env) (uint32, error) {
	switch space {
	case SpaceGlobal:
		return env.Global.Read32(addr), nil
	case SpaceShared:
		i := int(addr / 4)
		if i >= len(env.Block.Shared) {
			return 0, fmt.Errorf("kernel: shared load at %d beyond %d bytes", addr, 4*len(env.Block.Shared))
		}
		return env.Block.Shared[i], nil
	case SpaceConst:
		return env.Const.Read32(addr), nil
	case SpaceParam:
		i := int(addr / 4)
		if i >= len(env.Block.Launch.Params) {
			return 0, fmt.Errorf("kernel: param %d beyond %d params", i, len(env.Block.Launch.Params))
		}
		return env.Block.Launch.Params[i], nil
	case SpaceTexture:
		// Textures are read-only views of global memory.
		return env.Global.Read32(addr), nil
	}
	return 0, fmt.Errorf("kernel: load from space %v", space)
}

func (w *Warp) store(space Space, addr, v uint32, env *Env) error {
	switch space {
	case SpaceGlobal:
		env.Global.Write32(addr, v)
		return nil
	case SpaceShared:
		i := int(addr / 4)
		if i >= len(env.Block.Shared) {
			return fmt.Errorf("kernel: shared store at %d beyond %d bytes", addr, 4*len(env.Block.Shared))
		}
		env.Block.Shared[i] = v
		return nil
	}
	return fmt.Errorf("kernel: store to space %v", space)
}

func boolTo32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func cmpI(c Cmp, a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

func cmpF(c Cmp, a, b float32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}
