package opt

import (
	"testing"

	"elag/internal/ir"
	"elag/internal/isa"
)

// single-block helper: builds a function from instructions plus a ret.
func oneBlock(f *ir.Func, ins ...*ir.Instr) *ir.Block {
	b := f.NewBlock()
	b.Insts = append(b.Insts, ins...)
	ret := ir.NewInstr(ir.OpRet)
	ret.A = ir.C(0)
	b.Insts = append(b.Insts, ret)
	f.ComputeCFG()
	return b
}

func bin(op ir.Op, d ir.VReg, a, b ir.Operand) *ir.Instr {
	in := ir.NewInstr(op)
	in.Dst = d
	in.A, in.B = a, b
	return in
}

func cp(d ir.VReg, a ir.Operand) *ir.Instr {
	in := ir.NewInstr(ir.OpCopy)
	in.Dst = d
	in.A = a
	return in
}

// runAll replays the O2 schedule over the module using the exported
// passes, inlining first when inline is set. The production scheduler
// lives in internal/passman (which this package cannot import); this local
// copy keeps the whole-pipeline tests in the package that owns the passes.
func runAll(m *ir.Module, inline bool) {
	if inline {
		Inline(m, 40)
		PruneDeadFuncs(m)
	}
	for _, f := range m.Funcs {
		f.ComputeCFG()
		for r := 0; r < 8; r++ {
			changed := false
			changed = ConstProp(f) || changed
			changed = LocalCSE(f) || changed
			changed = CopyProp(f) || changed
			changed = CoalesceCopies(f) || changed
			changed = RedundantLoadElim(f) || changed
			changed = DeadCodeElim(f) || changed
			changed = LICM(f) || changed
			srChanged := StrengthReduce(f)
			changed = srChanged || changed
			if !srChanged {
				changed = FoldAddressing(f) || changed
			}
			changed = DeadCodeElim(f) || changed
			if !changed {
				break
			}
		}
		if MaterializeSyms(f) {
			LICM(f)
			DeadCodeElim(f)
		}
	}
}

func TestConstPropFoldsChains(t *testing.T) {
	f := ir.NewFunc("t", 0)
	v0, v1, v2 := f.NewVReg(), f.NewVReg(), f.NewVReg()
	b := oneBlock(f,
		cp(v0, ir.C(6)),
		cp(v1, ir.C(7)),
		bin(ir.OpMul, v2, ir.R(v0), ir.R(v1)),
	)
	ConstProp(f)
	mul := b.Insts[2]
	if mul.Op != ir.OpCopy {
		t.Fatalf("6*7 not folded: %s", mul)
	}
	if v, ok := mul.A.IsConst(); !ok || v != 42 {
		t.Errorf("folded value = %v", mul.A)
	}
}

func TestConstPropMulBecomesShift(t *testing.T) {
	f := ir.NewFunc("t", 1)
	v1 := f.NewVReg()
	b := oneBlock(f, bin(ir.OpMul, v1, ir.R(0), ir.C(8)))
	ConstProp(f)
	if in := b.Insts[0]; in.Op != ir.OpSll {
		t.Errorf("mul by 8 not strength-reduced to shift: %s", in)
	} else if v, _ := in.B.IsConst(); v != 3 {
		t.Errorf("shift amount = %d", v)
	}
}

func TestConstPropFoldsBranch(t *testing.T) {
	f := ir.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	br := ir.NewInstr(ir.OpBr)
	br.Cond = isa.CondLT
	br.A, br.B = ir.C(1), ir.C(2)
	br.Then, br.Else = b1, b2
	b0.Insts = append(b0.Insts, br)
	r1 := ir.NewInstr(ir.OpRet)
	r1.A = ir.C(1)
	b1.Insts = append(b1.Insts, r1)
	r2 := ir.NewInstr(ir.OpRet)
	r2.A = ir.C(2)
	b2.Insts = append(b2.Insts, r2)
	f.ComputeCFG()
	ConstProp(f)
	if tm := b0.Term(); tm.Op != ir.OpJmp || tm.To != b1 {
		t.Errorf("constant branch not folded: %s", tm)
	}
	if len(f.Blocks) != 2 {
		t.Errorf("dead arm not pruned: %d blocks", len(f.Blocks))
	}
}

func TestCopyPropLocal(t *testing.T) {
	f := ir.NewFunc("t", 1)
	v1, v2 := f.NewVReg(), f.NewVReg()
	b := oneBlock(f,
		cp(v1, ir.R(0)),
		bin(ir.OpAdd, v2, ir.R(v1), ir.C(1)),
	)
	CopyProp(f)
	if add := b.Insts[1]; !add.A.IsReg(0) {
		t.Errorf("copy not propagated: %s", add)
	}
}

func TestCopyPropRespectsRedefinition(t *testing.T) {
	// v1 = v0; v0 = 9; v2 = v1 + 1  — v1 must NOT become v0.
	f := ir.NewFunc("t", 1)
	v1, v2 := f.NewVReg(), f.NewVReg()
	b := oneBlock(f,
		cp(v1, ir.R(0)),
		cp(0, ir.C(9)),
		bin(ir.OpAdd, v2, ir.R(v1), ir.C(1)),
	)
	CopyProp(f)
	if add := b.Insts[2]; add.A.IsReg(0) {
		t.Errorf("copy propagated across redefinition: %s", add)
	}
}

func TestDeadCodeElim(t *testing.T) {
	f := ir.NewFunc("t", 1)
	dead, live := f.NewVReg(), f.NewVReg()
	b := f.NewBlock()
	b.Insts = append(b.Insts,
		bin(ir.OpAdd, dead, ir.R(0), ir.C(1)), // never used
		bin(ir.OpAdd, live, ir.R(0), ir.C(2)),
	)
	ret := ir.NewInstr(ir.OpRet)
	ret.A = ir.R(live)
	b.Insts = append(b.Insts, ret)
	f.ComputeCFG()
	DeadCodeElim(f)
	if len(b.Insts) != 2 {
		t.Errorf("dead add not removed: %d instructions", len(b.Insts))
	}
	if b.Insts[0].Dst != live {
		t.Errorf("wrong instruction removed")
	}
}

func TestDCEKeepsStoresCallsAndDivs(t *testing.T) {
	f := ir.NewFunc("t", 1)
	v := f.NewVReg()
	st := ir.NewInstr(ir.OpStore)
	st.A = ir.R(0)
	st.Base = ir.S("g", 0)
	st.Width = 8
	call := ir.NewInstr(ir.OpCall)
	call.Callee = "f"
	call.Dst = f.NewVReg() // unused result
	div := bin(ir.OpDiv, v, ir.R(0), ir.R(0))
	b := oneBlock(f, st, call, div)
	DeadCodeElim(f)
	if len(b.Insts) != 4 {
		t.Errorf("side-effecting instructions removed: %d left", len(b.Insts))
	}
}

func TestRedundantLoadElim(t *testing.T) {
	f := ir.NewFunc("t", 1)
	v1, v2, v3 := f.NewVReg(), f.NewVReg(), f.NewVReg()
	ld1 := ir.NewInstr(ir.OpLoad)
	ld1.Dst = v1
	ld1.Base = ir.R(0)
	ld1.Off = 8
	ld1.Width = 8
	ld2 := ir.NewInstr(ir.OpLoad)
	*ld2 = *ld1
	ld2.Dst = v2
	use := bin(ir.OpAdd, v3, ir.R(v1), ir.R(v2))
	b := oneBlock(f, ld1, ld2, use)
	if !RedundantLoadElim(f) {
		t.Fatalf("redundant load not detected")
	}
	if b.Insts[1].Op != ir.OpCopy || !b.Insts[1].A.IsReg(v1) {
		t.Errorf("second load not rewritten to a copy: %s", b.Insts[1])
	}
}

func TestRLEStoreInvalidates(t *testing.T) {
	f := ir.NewFunc("t", 2)
	v1, v2 := f.NewVReg(), f.NewVReg()
	ld1 := ir.NewInstr(ir.OpLoad)
	ld1.Dst = v1
	ld1.Base = ir.R(0)
	ld1.Width = 8
	st := ir.NewInstr(ir.OpStore)
	st.A = ir.R(1)
	st.Base = ir.R(1) // may alias
	st.Width = 8
	ld2 := ir.NewInstr(ir.OpLoad)
	ld2.Dst = v2
	ld2.Base = ir.R(0)
	ld2.Width = 8
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(v1), ir.R(v2))
	b := oneBlock(f, ld1, st, ld2, use)
	RedundantLoadElim(f)
	if b.Insts[2].Op != ir.OpLoad {
		t.Errorf("load after aliasing store was removed")
	}
}

func TestRLEStoreToLoadForwarding(t *testing.T) {
	f := ir.NewFunc("t", 2)
	v2 := f.NewVReg()
	st := ir.NewInstr(ir.OpStore)
	st.A = ir.R(1)
	st.Base = ir.R(0)
	st.Off = 16
	st.Width = 8
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = v2
	ld.Base = ir.R(0)
	ld.Off = 16
	ld.Width = 8
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(v2), ir.C(0))
	b := oneBlock(f, st, ld, use)
	RedundantLoadElim(f)
	if b.Insts[1].Op != ir.OpCopy || !b.Insts[1].A.IsReg(1) {
		t.Errorf("store-to-load not forwarded: %s", b.Insts[1])
	}
}

func TestCoalesceCopies(t *testing.T) {
	f := ir.NewFunc("t", 1)
	tmp, x := f.NewVReg(), f.NewVReg()
	add := bin(ir.OpAdd, tmp, ir.R(0), ir.C(1))
	mv := cp(x, ir.R(tmp))
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(x), ir.C(2))
	b := oneBlock(f, add, mv, use)
	if !CoalesceCopies(f) {
		t.Fatalf("adjacent op+copy not coalesced")
	}
	if len(b.Insts) != 3 { // add, use, ret
		t.Fatalf("copy not removed: %d instructions", len(b.Insts))
	}
	if b.Insts[0].Dst != x {
		t.Errorf("destination not renamed: %s", b.Insts[0])
	}
}

func TestCoalesceRequiresSingleUse(t *testing.T) {
	f := ir.NewFunc("t", 1)
	tmp, x := f.NewVReg(), f.NewVReg()
	add := bin(ir.OpAdd, tmp, ir.R(0), ir.C(1))
	mv := cp(x, ir.R(tmp))
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(tmp), ir.R(x)) // tmp used again
	b := oneBlock(f, add, mv, use)
	CoalesceCopies(f)
	if len(b.Insts) != 4 {
		t.Errorf("copy with extra use of source was coalesced")
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	// for(...) { v = n*8 (invariant); i++ }
	f := ir.NewFunc("t", 1)
	i, v := f.NewVReg(), f.NewVReg()
	entry, head, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	init := cp(i, ir.C(0))
	j := ir.NewInstr(ir.OpJmp)
	j.To = head
	entry.Insts = append(entry.Insts, init, j)
	br := ir.NewInstr(ir.OpBr)
	br.Cond = isa.CondLT
	br.A, br.B = ir.R(i), ir.R(0)
	br.Then, br.Else = body, exit
	head.Insts = append(head.Insts, br)
	inv := bin(ir.OpMul, v, ir.R(0), ir.C(8)) // invariant: param * 8
	inc := bin(ir.OpAdd, i, ir.R(i), ir.C(1))
	j2 := ir.NewInstr(ir.OpJmp)
	j2.To = head
	body.Insts = append(body.Insts, inv, inc, j2)
	ret := ir.NewInstr(ir.OpRet)
	ret.A = ir.R(v)
	exit.Insts = append(exit.Insts, ret)
	f.ComputeCFG()
	if !LICM(f) {
		t.Fatalf("invariant not hoisted")
	}
	for _, in := range body.Insts {
		if in == inv {
			t.Errorf("invariant still in loop body")
		}
	}
}

func TestStrengthReduceMakesPointerIV(t *testing.T) {
	// i = 0; loop: t = i*8; load [t + &g]; i++ — after reduction the
	// load's address register must step by 8 (a pointer IV).
	f := ir.NewFunc("t", 0)
	i, tv, a, v := f.NewVReg(), f.NewVReg(), f.NewVReg(), f.NewVReg()
	entry, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock()
	init := cp(i, ir.C(0))
	j := ir.NewInstr(ir.OpJmp)
	j.To = body
	entry.Insts = append(entry.Insts, init, j)
	mul := bin(ir.OpMul, tv, ir.R(i), ir.C(8))
	addr := bin(ir.OpAdd, a, ir.S("g", 0), ir.R(tv))
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = v
	ld.Base = ir.R(a)
	ld.Width = 8
	inc := bin(ir.OpAdd, i, ir.R(i), ir.C(1))
	br := ir.NewInstr(ir.OpBr)
	br.Cond = isa.CondLT
	br.A, br.B = ir.R(i), ir.C(100)
	br.Then, br.Else = body, exit
	body.Insts = append(body.Insts, mul, addr, ld, inc, br)
	ret := ir.NewInstr(ir.OpRet)
	ret.A = ir.R(v)
	exit.Insts = append(exit.Insts, ret)
	f.ComputeCFG()

	runAll(&ir.Module{Funcs: []*ir.Func{f}}, false)

	// After the full pipeline the load's base register must be defined
	// by a self-incrementing add (a pointer IV), and the multiply must
	// be gone from the loop.
	var loadIn *ir.Instr
	mulCount := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpLoad {
				loadIn = in
			}
			if in.Op == ir.OpMul || in.Op == ir.OpSll {
				mulCount++
			}
		}
	}
	if loadIn == nil {
		t.Fatalf("load disappeared:\n%s", f.String())
	}
	if loadIn.Base.Kind != ir.OpndReg {
		t.Fatalf("load base not a register: %s\n%s", loadIn, f.String())
	}
	base := loadIn.Base.Reg
	foundStep := false
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpAdd && in.Dst == base && in.A.IsReg(base) {
				if c, ok := in.B.IsConst(); ok && c == 8 {
					foundStep = true
				}
			}
		}
	}
	if !foundStep {
		t.Errorf("load base is not a stride-8 pointer IV:\n%s", f.String())
	}
	_ = mulCount
}

func TestFoldAddressing(t *testing.T) {
	f := ir.NewFunc("t", 2)
	a, v := f.NewVReg(), f.NewVReg()
	add := bin(ir.OpAdd, a, ir.R(0), ir.C(24))
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = v
	ld.Base = ir.R(a)
	ld.Width = 8
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(v), ir.C(0))
	oneBlock(f, add, ld, use)
	if !FoldAddressing(f) {
		t.Fatalf("reg+const address not folded")
	}
	if !ld.Base.IsReg(0) || ld.Off != 24 {
		t.Errorf("folded load wrong: %s", ld)
	}
}

func TestFoldAddressingRegReg(t *testing.T) {
	f := ir.NewFunc("t", 2)
	a, v := f.NewVReg(), f.NewVReg()
	add := bin(ir.OpAdd, a, ir.R(0), ir.R(1))
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = v
	ld.Base = ir.R(a)
	ld.Width = 8
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(v), ir.C(0))
	oneBlock(f, add, ld, use)
	FoldAddressing(f)
	if !ld.Base.IsReg(0) || ld.Index != 1 {
		t.Errorf("reg+reg not folded: %s", ld)
	}
}

func TestFoldAddressingRejectsSelfIncrement(t *testing.T) {
	// p = p + 8; load [p]  — folding would read p before its update.
	f := ir.NewFunc("t", 1)
	v := f.NewVReg()
	inc := bin(ir.OpAdd, 0, ir.R(0), ir.C(8))
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = v
	ld.Base = ir.R(0)
	ld.Width = 8
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(v), ir.C(0))
	oneBlock(f, inc, ld, use)
	FoldAddressing(f)
	if ld.Off != 0 {
		t.Errorf("self-increment folded into load: %s", ld)
	}
}

func TestInlineExpandsSmallCallee(t *testing.T) {
	m := &ir.Module{}
	callee := ir.NewFunc("double", 1)
	cb := callee.NewBlock()
	d := callee.NewVReg()
	cb.Insts = append(cb.Insts, bin(ir.OpAdd, d, ir.R(0), ir.R(0)))
	ret := ir.NewInstr(ir.OpRet)
	ret.A = ir.R(d)
	cb.Insts = append(cb.Insts, ret)

	caller := ir.NewFunc("main", 0)
	mb := caller.NewBlock()
	res := caller.NewVReg()
	call := ir.NewInstr(ir.OpCall)
	call.Callee = "double"
	call.Dst = res
	call.Args = []ir.Operand{ir.C(21)}
	mb.Insts = append(mb.Insts, call)
	mret := ir.NewInstr(ir.OpRet)
	mret.A = ir.R(res)
	mb.Insts = append(mb.Insts, mret)
	caller.ComputeCFG()
	callee.ComputeCFG()
	m.Funcs = []*ir.Func{caller, callee}

	if !Inline(m, 40) {
		t.Fatalf("small callee not inlined")
	}
	for _, b := range caller.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpCall {
				t.Errorf("call survived inlining: %s", in)
			}
		}
	}
	PruneDeadFuncs(m)
	if m.Func("double") != nil {
		t.Errorf("dead callee not pruned")
	}
	if m.Func("main") == nil {
		t.Errorf("main pruned!")
	}
}

func TestInlineSkipsRecursive(t *testing.T) {
	m := &ir.Module{}
	rec := ir.NewFunc("rec", 1)
	rb := rec.NewBlock()
	call := ir.NewInstr(ir.OpCall)
	call.Callee = "rec"
	call.Dst = rec.NewVReg()
	call.Args = []ir.Operand{ir.R(0)}
	rb.Insts = append(rb.Insts, call)
	ret := ir.NewInstr(ir.OpRet)
	ret.A = ir.R(call.Dst)
	rb.Insts = append(rb.Insts, ret)
	rec.ComputeCFG()

	main := ir.NewFunc("main", 0)
	mb := main.NewBlock()
	c2 := ir.NewInstr(ir.OpCall)
	c2.Callee = "rec"
	c2.Dst = main.NewVReg()
	c2.Args = []ir.Operand{ir.C(1)}
	mb.Insts = append(mb.Insts, c2)
	mret := ir.NewInstr(ir.OpRet)
	mret.A = ir.R(c2.Dst)
	mb.Insts = append(mb.Insts, mret)
	main.ComputeCFG()
	m.Funcs = []*ir.Func{main, rec}

	Inline(m, 100)
	found := false
	for _, b := range main.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpCall && in.Callee == "rec" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("recursive function was inlined")
	}
}

func TestMaterializeSyms(t *testing.T) {
	f := ir.NewFunc("t", 1)
	v := f.NewVReg()
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = v
	ld.Base = ir.S("g", 0)
	ld.Index = 0 // indexed: must be materialized
	ld.Width = 8
	abs := ir.NewInstr(ir.OpLoad)
	abs.Dst = f.NewVReg()
	abs.Base = ir.S("g", 8)
	abs.Index = ir.NoVReg // absolute: must stay
	abs.Width = 8
	use := bin(ir.OpAdd, f.NewVReg(), ir.R(v), ir.R(abs.Dst))
	b := oneBlock(f, ld, abs, use)
	if !MaterializeSyms(f) {
		t.Fatalf("no materialization happened")
	}
	if ld.Base.Kind != ir.OpndReg {
		t.Errorf("indexed sym base not materialized: %s", ld)
	}
	if abs.Base.Kind != ir.OpndSym {
		t.Errorf("absolute sym base materialized: %s", abs)
	}
	if b.Insts[0].Op != ir.OpCopy || b.Insts[0].A.Kind != ir.OpndSym {
		t.Errorf("materializing copy missing: %s", b.Insts[0])
	}
}

func TestRunIsIdempotentish(t *testing.T) {
	// Running the driver twice must not change the instruction count
	// after the first convergence.
	f := ir.NewFunc("main", 0)
	v := f.NewVReg()
	oneBlock(f, cp(v, ir.C(1)), bin(ir.OpAdd, f.NewVReg(), ir.R(v), ir.C(2)))
	m := &ir.Module{Funcs: []*ir.Func{f}}
	runAll(m, true)
	count := func() int {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
		return n
	}
	before := count()
	runAll(m, true)
	if count() != before {
		t.Errorf("second Run changed the program: %d -> %d", before, count())
	}
}

func TestLocalCSE(t *testing.T) {
	f := ir.NewFunc("t", 2)
	v1, v2 := f.NewVReg(), f.NewVReg()
	a1 := bin(ir.OpAdd, v1, ir.R(0), ir.R(1))
	a2 := bin(ir.OpAdd, v2, ir.R(0), ir.R(1)) // same expression
	use := bin(ir.OpXor, f.NewVReg(), ir.R(v1), ir.R(v2))
	b := oneBlock(f, a1, a2, use)
	if !LocalCSE(f) {
		t.Fatalf("common subexpression not found")
	}
	if b.Insts[1].Op != ir.OpCopy || !b.Insts[1].A.IsReg(v1) {
		t.Errorf("duplicate add not rewritten: %s", b.Insts[1])
	}
}

func TestLocalCSERespectsRedefinition(t *testing.T) {
	// v0 is redefined between the two adds: no reuse allowed.
	f := ir.NewFunc("t", 2)
	v1, v2 := f.NewVReg(), f.NewVReg()
	a1 := bin(ir.OpAdd, v1, ir.R(0), ir.R(1))
	redef := cp(0, ir.C(99))
	a2 := bin(ir.OpAdd, v2, ir.R(0), ir.R(1))
	use := bin(ir.OpXor, f.NewVReg(), ir.R(v1), ir.R(v2))
	b := oneBlock(f, a1, redef, a2, use)
	LocalCSE(f)
	if b.Insts[2].Op != ir.OpAdd {
		t.Errorf("CSE across operand redefinition: %s", b.Insts[2])
	}
}

func TestLocalCSESkipsSideEffects(t *testing.T) {
	f := ir.NewFunc("t", 2)
	v1, v2 := f.NewVReg(), f.NewVReg()
	d1 := bin(ir.OpDiv, v1, ir.R(0), ir.R(1)) // may fault: kept
	d2 := bin(ir.OpDiv, v2, ir.R(0), ir.R(1))
	use := bin(ir.OpXor, f.NewVReg(), ir.R(v1), ir.R(v2))
	b := oneBlock(f, d1, d2, use)
	LocalCSE(f)
	if b.Insts[1].Op != ir.OpDiv {
		t.Errorf("side-effecting div folded by CSE")
	}
}
