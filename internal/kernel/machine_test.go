package kernel

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", 4)
	b.Bra("nowhere", "nowhere")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("expected undefined-label error, got %v", err)
	}

	b2 := NewBuilder("noexit", 4)
	b2.Nop()
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "no exit") {
		t.Errorf("expected missing-exit error, got %v", err)
	}

	b3 := NewBuilder("badreg", 2)
	b3.MovI(5, 1) // r5 >= NumRegs 2
	b3.Exit()
	if _, err := b3.Build(); err == nil {
		t.Error("expected out-of-range register error")
	}

	b4 := NewBuilder("", 4)
	b4.Exit()
	if _, err := b4.Build(); err == nil {
		t.Error("expected missing-name error")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label should panic")
		}
	}()
	b := NewBuilder("dup", 4)
	b.Label("x")
	b.Label("x")
}

func TestLaunchValidate(t *testing.T) {
	b := NewBuilder("k", 4).Params(1)
	b.Exit()
	p := b.MustBuild()
	good := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}, Params: []uint32{0}}
	if err := good.Validate(); err != nil {
		t.Errorf("good launch rejected: %v", err)
	}
	cases := []*Launch{
		nil,
		{Prog: nil},
		{Prog: p, Grid: Dim{0, 1}, Block: Dim{32, 1}, Params: []uint32{0}},
		{Prog: p, Grid: Dim{1, 1}, Block: Dim{0, 1}, Params: []uint32{0}},
		{Prog: p, Grid: Dim{1, 1}, Block: Dim{2048, 1}, Params: []uint32{0}},
		{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}, Params: nil},
	}
	// Instructions the executor cannot run: each case mutates the IMad of
	// an otherwise valid program.
	mutated := func(mut func(in *Instr)) *Launch {
		b := NewBuilder("k", 4).Params(1)
		b.IMad(0, S(SpecTidX), S(SpecCtaX), R(1))
		b.Exit()
		q := b.MustBuild()
		mut(&q.Instrs[0])
		return &Launch{Prog: q, Grid: Dim{1, 1}, Block: Dim{32, 1}, Params: []uint32{0}}
	}
	cases = append(cases,
		mutated(func(in *Instr) { in.NumSrc = 4 }),
		mutated(func(in *Instr) { in.NumSrc = -1 }),
		mutated(func(in *Instr) { in.Src[2].Kind = KindSpecial + 1 }),
		mutated(func(in *Instr) { in.Src[1].Special = 42 }),
		mutated(func(in *Instr) { in.Src[0].Special = SpecWarpInBlock + 1 }),
		mutated(func(in *Instr) { in.Pred = -5 }),
		mutated(func(in *Instr) { in.Op, in.NumSrc, in.Cmp = OpISet, 2, CmpGE+1 }),
		mutated(func(in *Instr) { in.Op, in.NumSrc, in.Cmp = OpFSet, 2, 9 }),
	)
	if err := mutated(func(*Instr) {}).Validate(); err != nil {
		t.Errorf("unmutated program rejected: %v", err)
	}
	for i, l := range cases {
		if l == nil {
			continue
		}
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestWarpsPerBlockRounding(t *testing.T) {
	b := NewBuilder("k", 4)
	b.Exit()
	p := b.MustBuild()
	for _, c := range []struct{ threads, warps int }{
		{1, 1}, {32, 1}, {33, 2}, {64, 2}, {100, 4}, {1024, 32},
	} {
		l := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{c.threads, 1}}
		if got := l.WarpsPerBlock(); got != c.warps {
			t.Errorf("%d threads: %d warps, want %d", c.threads, got, c.warps)
		}
	}
}

func TestPartialWarpMask(t *testing.T) {
	w := NewWarp(0, 10, 4)
	if w.ActiveMask() != (1<<10)-1 {
		t.Errorf("mask = %#x, want %#x", w.ActiveMask(), (1<<10)-1)
	}
	w32 := NewWarp(0, 32, 4)
	if w32.ActiveMask() != FullMask {
		t.Errorf("full warp mask = %#x", w32.ActiveMask())
	}
}

func TestNewWarpPanicsOnBadLanes(t *testing.T) {
	for _, lanes := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWarp with %d lanes should panic", lanes)
				}
			}()
			NewWarp(0, lanes, 4)
		}()
	}
}

func TestExecErrorsOnFinishedWarp(t *testing.T) {
	b := NewBuilder("k", 4)
	b.Exit()
	p := b.MustBuild()
	l := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}}
	env := &Env{Global: NewGlobalMem(), Const: NewConstMem(0), Block: NewBlockCtx(l, 0, 0)}
	w := NewWarp(0, 32, 4)
	var info StepInfo
	if err := w.Exec(p, env, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Finished || !w.Finished {
		t.Fatal("warp should finish after exit")
	}
	if err := w.Exec(p, env, &info); err == nil {
		t.Error("exec on finished warp should error")
	}
}

// TestExecIntoReusedStepInfo pins Exec's overwrite contract: executing
// into a StepInfo left holding garbage from earlier instructions must report
// exactly what executing into a zeroed one does, on every field the timing
// model reads. The program covers a divergent branch, a partial exit inside
// the divergent region, a barrier, and global/shared loads and stores.
func TestExecIntoReusedStepInfo(t *testing.T) {
	b := NewBuilder("reuse", 6).SMem(128)
	b.SReg(0, SpecLane)
	b.IShl(1, R(0), I(2))
	b.Ld(SpaceGlobal, 2, R(1), 256)
	b.St(SpaceShared, R(1), R(2), 0)
	b.Bar()
	b.Ld(SpaceShared, 3, R(1), 0)
	b.ISet(4, CmpLT, R(0), I(12))
	b.When(4).Bra("low", "join")
	b.IAnd(5, R(0), I(1))
	b.When(5).Exit()
	b.St(SpaceGlobal, R(1), R(3), 512)
	b.BraUni("join")
	b.Label("low")
	b.IAdd(3, R(3), I(7))
	b.Label("join")
	b.St(SpaceGlobal, R(1), R(3), 1024)
	b.Exit()
	p := b.MustBuild()
	l := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}}

	newRun := func() (*Warp, *Env) {
		g := NewGlobalMem()
		g.Alloc(4096)
		for i := uint32(0); i < 32; i++ {
			g.Write32(256+4*i, 3*i+1)
		}
		return NewWarp(0, 32, 6), &Env{Global: g, Const: NewConstMem(0), Block: NewBlockCtx(l, 0, 0)}
	}
	wz, envZ := newRun()
	wp, envP := newRun()
	var reused StepInfo
	seen := map[Op]bool{}
	var diverged, reconverged bool
	for step := 0; !wz.Finished; step++ {
		if step > 100 {
			t.Fatal("program did not finish")
		}
		if wz.AtBarrier {
			wz.ReleaseBarrier()
			wp.ReleaseBarrier()
		}
		reused = StepInfo{
			Instr: &p.Instrs[0], PC: -7, ExecMask: 0xdeadbeef, ActiveLanes: 99,
			Diverged: true, Reconverged: 42, Finished: true, AtBarrier: true,
		}
		for i := range reused.Addrs {
			reused.Addrs[i] = 0xbad0000 + uint32(i)
		}
		var fresh StepInfo
		if err := wz.Exec(p, envZ, &fresh); err != nil {
			t.Fatal(err)
		}
		if err := wp.Exec(p, envP, &reused); err != nil {
			t.Fatal(err)
		}
		seen[fresh.Instr.Op] = true
		diverged = diverged || fresh.Diverged
		reconverged = reconverged || fresh.Reconverged > 0
		got, want := reused, fresh
		if ClassOf(want.Instr.Op) == ClassMem {
			for lane := 0; lane < WarpSize; lane++ {
				if want.ExecMask&(1<<lane) == 0 {
					got.Addrs[lane], want.Addrs[lane] = 0, 0
				}
			}
		} else {
			got.Addrs, want.Addrs = [WarpSize]uint32{}, [WarpSize]uint32{}
		}
		if got != want {
			t.Fatalf("step %d (pc %d, %v): reused StepInfo %+v, zeroed %+v", step, want.PC, want.Instr.Op, got, want)
		}
	}
	for _, op := range []Op{OpLd, OpSt, OpBar, OpExit, OpBra} {
		if !seen[op] {
			t.Errorf("program never exercised op %v", op)
		}
	}
	if !diverged || !reconverged {
		t.Errorf("program never diverged (%v) or reconverged (%v)", diverged, reconverged)
	}
}

func TestRunawayPCDetected(t *testing.T) {
	// A program whose control falls off the end (exit only on a path not
	// taken) must produce an error, not an infinite loop or panic.
	b := NewBuilder("falloff", 4)
	b.MovI(0, 0)
	b.When(0).Exit() // never true
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}}
	env := &Env{Global: NewGlobalMem(), Const: NewConstMem(0), Block: NewBlockCtx(l, 0, 0)}
	w := NewWarp(0, 32, 4)
	var info StepInfo
	var lastErr error
	for i := 0; i < 10; i++ {
		if lastErr = w.Exec(p, env, &info); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Error("running off the end of the program should error")
	}
}

func TestSharedOutOfBoundsErrors(t *testing.T) {
	b := NewBuilder("oob", 4).SMem(16)
	b.MovI(0, 1024)
	b.Ld(SpaceShared, 1, R(0), 0)
	b.Exit()
	p := b.MustBuild()
	l := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}}
	if _, err := Interp(l, NewGlobalMem(), nil); err == nil {
		t.Error("out-of-bounds shared access should error")
	}
}

func TestClassOfCoversAllOps(t *testing.T) {
	for op := OpNop; op <= OpExit; op++ {
		c := ClassOf(op)
		if c > ClassCtrl {
			t.Errorf("op %v has invalid class %v", op, c)
		}
	}
	if ClassOf(OpFFma) != ClassFP || ClassOf(OpIMad) != ClassInt ||
		ClassOf(OpSin) != ClassSFU || ClassOf(OpLd) != ClassMem || ClassOf(OpBra) != ClassCtrl {
		t.Error("representative class mapping broken")
	}
}

func TestSrcRegs(t *testing.T) {
	in := Instr{Op: OpIMad, NumSrc: 3, Pred: 5}
	in.Src[0] = R(1)
	in.Src[1] = I(7)
	in.Src[2] = R(3)
	regs := in.SrcRegs(nil)
	if len(regs) != 3 || regs[0] != 1 || regs[1] != 3 || regs[2] != 5 {
		t.Errorf("SrcRegs = %v, want [1 3 5]", regs)
	}
}

func TestGlobalMemAllocAlignment(t *testing.T) {
	m := NewGlobalMem()
	a := m.Alloc(10)
	b := m.Alloc(1)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-aligned: %d %d", a, b)
	}
	if a == 0 {
		t.Error("address 0 must stay unmapped (null)")
	}
	if b <= a {
		t.Error("allocations must not overlap")
	}
}

func TestGlobalMemRoundTrip(t *testing.T) {
	m := NewGlobalMem()
	f := func(off uint16, v uint32) bool {
		addr := 256 + uint32(off)*4
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	ff := func(v float32) bool {
		m.WriteF32(512, v)
		got := m.ReadF32(512)
		return got == v || (v != v && got != got) // NaN-safe
	}
	if err := quick.Check(ff, nil); err != nil {
		t.Error(err)
	}
}

func TestReconvergenceStackInvariant(t *testing.T) {
	// Property: for random two-way divergence masks, child masks partition
	// the parent mask.
	f := func(predBits uint32) bool {
		b := NewBuilder("p", 4)
		b.SReg(0, SpecLane)
		// predicate = bit tid of predBits
		b.MovI(1, int32(predBits))
		b.IShr(1, R(1), R(0))
		b.IAnd(1, R(1), I(1))
		b.When(1).Bra("taken", "join")
		b.Nop()
		b.BraUni("join")
		b.Label("taken")
		b.Nop()
		b.Label("join")
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return false
		}
		l := &Launch{Prog: p, Grid: Dim{1, 1}, Block: Dim{32, 1}}
		env := &Env{Global: NewGlobalMem(), Const: NewConstMem(0), Block: NewBlockCtx(l, 0, 0)}
		w := NewWarp(0, 32, 4)
		var info StepInfo
		for !w.Finished {
			if len(w.Stack) > 0 {
				bottom := w.Stack[0].Mask
				for i := 1; i < len(w.Stack); i++ {
					// Invariant 1: every mask is a subset of the bottom mask.
					if w.Stack[i].Mask&^bottom != 0 {
						return false
					}
					// Invariant 2: sibling tokens (same reconvergence point,
					// adjacent) carry disjoint masks.
					if w.Stack[i].Reconv == w.Stack[i-1].Reconv &&
						w.Stack[i].Mask&w.Stack[i-1].Mask != 0 {
						return false
					}
				}
			}
			if err := w.Exec(p, env, &info); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
