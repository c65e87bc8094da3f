package core

import (
	"strings"
	"testing"

	"elag/internal/asm/asmtest"
	"elag/internal/isa"
)

// TestPaperFigure4ForLoop reproduces the paper's Figure 4(a)/(b): the
// compiled for-loop
//
//	_for: op1 ld  r4, r17(0)   ; ind[i]      -> ld_p
//	      op2 lsl r5, r4, 2
//	      op3 ld  r6, r19(r5)  ; arr1[ind[i]] -> ld_n (reg+reg, load-dep)
//	      op4 ld  r7, r18(0)   ; arr2[i]     -> ld_p
//	      ...
func TestPaperFigure4ForLoop(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r1, 0
		li r17, 4096
		li r18, 8192
		li r19, 12288
		li r20, 100
	_for:	ld8_n r4, r17(0)
		sll r5, r4, 2
		ld8_n r6, r19(r5)
		ld8_n r7, r18(0)
		add r1, r1, 1
		add r18, r18, 4
		add r17, r17, 4
		blt r1, r20, _for
		halt r0
	`)
	c := Classify(p, Options{})
	op1 := p.Symbols["_for"]
	if got := c.Class(op1); got != PD {
		t.Errorf("op1 (ind[i]) classified %v, want PD", got)
	}
	if got := c.Class(op1 + 2); got != NT {
		t.Errorf("op3 (arr1[ind[i]], reg+reg) classified %v, want NT", got)
	}
	if got := c.Class(op1 + 3); got != PD {
		t.Errorf("op4 (arr2[i]) classified %v, want PD", got)
	}
}

// TestPaperFigure4WhileLoop reproduces Figure 4(c)/(d): the pointer-chasing
// while-loop whose three loads all use base r2 — the largest load-dependent
// group — and therefore all get ld_e.
func TestPaperFigure4WhileLoop(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r2, 4096
	_while:	ld8_n r3, r2(0)
		ld8_n r4, r2(4)
		ld8_n r2, r2(8)
		bne r2, 0, _while
		halt r0
	`)
	c := Classify(p, Options{})
	start := p.Symbols["_while"]
	for i := 0; i < 3; i++ {
		if got := c.Class(start + i); got != EC {
			t.Errorf("op1%d classified %v, want EC", 1+i, got)
		}
	}
}

// TestLargestGroupWinsRAddr: with two load-dependent groups, only the
// larger gets ld_e; the smaller gets ld_n.
func TestLargestGroupWinsRAddr(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r2, 4096
		li r3, 8192
	loop:	ld8_n r4, r2(0)
		ld8_n r5, r2(8)
		ld8_n r6, r2(16)
		ld8_n r7, r3(0)
		ld8_n r2, r2(24)
		ld8_n r3, r7(0)
		bne r2, 0, loop
		halt r0
	`)
	c := Classify(p, Options{})
	l := p.Symbols["loop"]
	// r2 group: loads at l, l+1, l+2, l+4 (4 members) -> EC.
	for _, pc := range []int{l, l + 1, l + 2, l + 4} {
		if got := c.Class(pc); got != EC {
			t.Errorf("r2-group load at %d classified %v, want EC", pc, got)
		}
	}
	// r3 group (l+3) and r7 group (l+5): smaller -> NT.
	if got := c.Class(l + 3); got != NT {
		t.Errorf("r3-group load classified %v, want NT", got)
	}
	if got := c.Class(l + 5); got != NT {
		t.Errorf("r7-group load classified %v, want NT", got)
	}
}

// TestMaxECGroups: raising the addressing-register budget promotes the
// second-largest group to EC as well.
func TestMaxECGroups(t *testing.T) {
	src := `
	main:	li r2, 4096
		li r3, 8192
	loop:	ld8_n r4, r2(0)
		ld8_n r5, r2(8)
		ld8_n r6, r3(0)
		ld8_n r2, r2(16)
		ld8_n r3, r3(8)
		bne r2, 0, loop
		halt r0
	`
	c1 := Classify(asmtest.MustAssemble(t, src), Options{MaxECGroups: 1})
	c2 := Classify(asmtest.MustAssemble(t, src), Options{MaxECGroups: 2})
	if c1.StaticEC >= c2.StaticEC {
		t.Errorf("MaxECGroups=2 did not increase EC loads: %d vs %d",
			c1.StaticEC, c2.StaticEC)
	}
	if c2.StaticNT != 0 {
		t.Errorf("with 2 groups all load-dependent loads should be EC, NT=%d", c2.StaticNT)
	}
}

// TestAcyclicHeuristic: outside loops, absolute loads are PD; the largest
// base group is EC; the rest NT.
func TestAcyclicHeuristic(t *testing.T) {
	p := asmtest.MustAssemble(t, `
		.data
	g:	.word 7
		.text
	main:	ld8_n r1, (g)
		li r2, 4096
		li r3, 8192
		ld8_n r4, r2(0)
		ld8_n r5, r2(8)
		ld8_n r6, r3(0)
		halt r0
	`)
	c := Classify(p, Options{})
	if got := c.Class(0); got != PD {
		t.Errorf("absolute load classified %v, want PD", got)
	}
	if c.Class(3) != EC || c.Class(4) != EC {
		t.Errorf("largest acyclic group not EC: %v %v", c.Class(3), c.Class(4))
	}
	if got := c.Class(5); got != NT {
		t.Errorf("minority acyclic group classified %v, want NT", got)
	}
}

// TestTaintKillsFalseDependence: a register that once held a loaded value
// but is redefined from untainted sources before the load must not make the
// load load-dependent (the kill-aware dataflow; the additive variant
// misclassifies this case).
func TestTaintKillsFalseDependence(t *testing.T) {
	src := `
	main:	li r2, 4096
		li r9, 0
	loop:	ld8_n r3, r2(0)
		add r4, r3, 1
		st8 r4, r2(8)
		li r3, 8
		add r2, r2, r3     ; r2 = r2 + 8: r3 now constant, not loaded
		add r9, r9, 1
		blt r9, 100, loop
		halt r0
	`
	pTaint := asmtest.MustAssemble(t, src)
	cTaint := Classify(pTaint, Options{})
	ld := pTaint.Symbols["loop"]
	if got := cTaint.Class(ld); got != PD {
		t.Errorf("taint dataflow classified the strided load %v, want PD", got)
	}
	pAdd := asmtest.MustAssemble(t, src)
	cAdd := Classify(pAdd, Options{AdditiveSLoad: true})
	if got := cAdd.Class(ld); got != NT && got != EC {
		t.Errorf("additive S_load should conservatively classify the load "+
			"load-dependent (NT or EC), got %v", got)
	}
}

// TestCallsTaintLoop: a call inside the loop makes subsequent loads through
// caller-saved base registers load-dependent — the conservatism Section 6
// of the paper describes.
func TestCallsTaintLoop(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r9, 0
	loop:	call r63, helper
		ld8_n r3, r1(0)        ; r1 comes from the call: load-dependent
		add r9, r9, 1
		blt r9, 100, loop
		halt r0
	helper:	li r1, 4096
		ret
	`)
	c := Classify(p, Options{})
	ld := p.Symbols["loop"] + 1
	if got := c.Class(ld); got == PD {
		t.Errorf("load through a call-clobbered base classified PD; want load-dependent")
	}
}

// TestInnerLoopClassificationWins: a load in a nested loop keeps the class
// its innermost loop assigned.
func TestInnerLoopClassificationWins(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r9, 0
	outer:	li r8, 0
		ld8_n r5, r20(0)      ; outer-loop load
	inner:	ld8_n r4, r21(0)      ; inner-loop load, strided base
		add r21, r21, 8
		add r8, r8, 1
		blt r8, 10, inner
		add r9, r9, 1
		blt r9, 10, outer
		halt r0
	`)
	c := Classify(p, Options{})
	if got := c.Class(p.Symbols["inner"]); got != PD {
		t.Errorf("inner strided load = %v, want PD", got)
	}
	if got := c.Class(p.Symbols["outer"] + 1); got != PD {
		t.Errorf("outer load = %v, want PD", got)
	}
}

func TestReclassifyPromotesOnlyNT(t *testing.T) {
	c := &Classification{ByPC: map[int]Class{
		0: NT, 1: NT, 2: EC, 3: PD,
	}}
	rates := map[int]float64{
		0: 0.95, // NT, predictable -> PD
		1: 0.10, // NT, unpredictable -> stays
		2: 0.99, // EC: never overruled
		3: 0.05, // PD: never overruled
	}
	n := Reclassify(c, rates, 0.60)
	if n.ByPC[0] != PD {
		t.Errorf("predictable NT load not promoted")
	}
	if n.ByPC[1] != NT {
		t.Errorf("unpredictable NT load promoted")
	}
	if n.ByPC[2] != EC || n.ByPC[3] != PD {
		t.Errorf("non-NT classes overruled: %v %v", n.ByPC[2], n.ByPC[3])
	}
	if n.StaticPD != 2 || n.StaticNT != 1 || n.StaticEC != 1 {
		t.Errorf("counts wrong: %+v", n)
	}
	// Exactly at the threshold: not promoted (strictly greater).
	n2 := Reclassify(c, map[int]float64{0: 0.60}, 0.60)
	if n2.ByPC[0] != NT {
		t.Errorf("rate == threshold should not promote")
	}
}

func TestApplyRewritesFlavors(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r2, 4096
	loop:	ld8_n r3, r2(0)
		ld8_n r2, r2(8)
		bne r2, 0, loop
		halt r0
	`)
	c := ClassifyAndApply(p, Options{})
	for pc := range p.Insts {
		if !p.Insts[pc].IsLoad() {
			continue
		}
		if p.Insts[pc].Flavor != c.Class(pc).Flavor() {
			t.Errorf("flavor at %d not applied", pc)
		}
	}
	if p.Insts[1].Flavor != isa.LdE || p.Insts[2].Flavor != isa.LdE {
		t.Errorf("chase loads not ld_e: %v %v", p.Insts[1].Flavor, p.Insts[2].Flavor)
	}
}

func TestClassificationSummary(t *testing.T) {
	c := &Classification{ByPC: map[int]Class{0: NT, 1: PD, 2: PD, 3: EC}}
	c.StaticNT, c.StaticPD, c.StaticEC = 1, 2, 1
	nt, pd, ec := c.StaticShares()
	if nt != 25 || pd != 50 || ec != 25 {
		t.Errorf("shares = %v %v %v", nt, pd, ec)
	}
	if !strings.Contains(c.String(), "loads=4") {
		t.Errorf("summary: %s", c)
	}
	var empty Classification
	if a, b, d := empty.StaticShares(); a != 0 || b != 0 || d != 0 {
		t.Errorf("empty shares nonzero")
	}
}

func TestDumpStructure(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r9, 0
	loop:	ld8_n r1, r20(0)
		add r9, r9, 1
		blt r9, 5, loop
		halt r0
	`)
	s := DumpStructure(p)
	if !strings.Contains(s, "loop depth=1") {
		t.Errorf("structure dump missing loop:\n%s", s)
	}
}
