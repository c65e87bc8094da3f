package ir

import (
	"testing"

	"elag/internal/isa"
)

// buildDiamond returns a function with the CFG
//
//	B0 -> B1 -> B3
//	  \-> B2 -/
func buildDiamond() (*Func, []*Block) {
	f := NewFunc("d", 0)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	v := f.NewVReg()
	cp := NewInstr(OpCopy)
	cp.Dst = v
	cp.A = C(1)
	br := NewInstr(OpBr)
	br.Cond = isa.CondEQ
	br.A, br.B = R(v), C(0)
	br.Then, br.Else = b1, b2
	b0.Insts = append(b0.Insts, cp, br)
	j1 := NewInstr(OpJmp)
	j1.To = b3
	b1.Insts = append(b1.Insts, j1)
	j2 := NewInstr(OpJmp)
	j2.To = b3
	b2.Insts = append(b2.Insts, j2)
	ret := NewInstr(OpRet)
	ret.A = R(v)
	b3.Insts = append(b3.Insts, ret)
	f.ComputeCFG()
	return f, []*Block{b0, b1, b2, b3}
}

func TestComputeCFGEdges(t *testing.T) {
	_, bs := buildDiamond()
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	if len(b0.Succs) != 2 || b0.Succs[0] != b1 || b0.Succs[1] != b2 {
		t.Errorf("b0 succs wrong")
	}
	if len(b3.Preds) != 2 {
		t.Errorf("b3 preds = %d", len(b3.Preds))
	}
	if len(b1.Preds) != 1 || b1.Preds[0] != b0 {
		t.Errorf("b1 preds wrong")
	}
}

func TestComputeCFGPrunesUnreachable(t *testing.T) {
	f := NewFunc("u", 0)
	b0 := f.NewBlock()
	dead := f.NewBlock()
	ret := NewInstr(OpRet)
	b0.Insts = append(b0.Insts, ret)
	j := NewInstr(OpJmp)
	j.To = b0
	dead.Insts = append(dead.Insts, j)
	f.ComputeCFG()
	if len(f.Blocks) != 1 || f.Blocks[0] != b0 {
		t.Errorf("unreachable block not pruned: %d blocks", len(f.Blocks))
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f, bs := buildDiamond()
	idom := Idoms(f.Blocks[0], blockSuccs, blockPreds)
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	if idom[b3] != b0 {
		t.Errorf("idom(B3) = B%d, want B0", idom[b3].ID)
	}
	if !dominates(idom, b0, b3) || dominates(idom, b1, b3) || dominates(idom, b2, b3) {
		t.Errorf("diamond dominance wrong")
	}
	if !dominates(idom, b1, b1) {
		t.Errorf("dominance not reflexive")
	}
}

// buildLoop returns: B0 -> B1(header) -> B2(body) -> B1, B1 -> B3(exit),
// with an inner self-loop... simple single loop here.
func buildLoop() (*Func, []*Block) {
	f := NewFunc("l", 0)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	i := f.NewVReg()
	init := NewInstr(OpCopy)
	init.Dst = i
	init.A = C(0)
	j0 := NewInstr(OpJmp)
	j0.To = b1
	b0.Insts = append(b0.Insts, init, j0)
	br := NewInstr(OpBr)
	br.Cond = isa.CondLT
	br.A, br.B = R(i), C(10)
	br.Then, br.Else = b2, b3
	b1.Insts = append(b1.Insts, br)
	inc := NewInstr(OpAdd)
	inc.Dst = i
	inc.A, inc.B = R(i), C(1)
	j2 := NewInstr(OpJmp)
	j2.To = b1
	b2.Insts = append(b2.Insts, inc, j2)
	ret := NewInstr(OpRet)
	ret.A = R(i)
	b3.Insts = append(b3.Insts, ret)
	f.ComputeCFG()
	return f, []*Block{b0, b1, b2, b3}
}

func TestFindLoops(t *testing.T) {
	f, bs := buildLoop()
	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != bs[1] {
		t.Errorf("header = B%d, want B1", l.Header.ID)
	}
	if !l.Contains(bs[1]) || !l.Contains(bs[2]) || l.Contains(bs[0]) || l.Contains(bs[3]) {
		t.Errorf("loop body wrong")
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
}

func TestNestedLoopsInnermostFirst(t *testing.T) {
	// B0 -> B1(outer hdr) -> B2(inner hdr) -> B2..., B2 -> B1, B1 -> B3
	f := NewFunc("n", 0)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	v := f.NewVReg()
	cp := NewInstr(OpCopy)
	cp.Dst = v
	cp.A = C(0)
	j := NewInstr(OpJmp)
	j.To = b1
	b0.Insts = append(b0.Insts, cp, j)
	br1 := NewInstr(OpBr)
	br1.Cond = isa.CondLT
	br1.A, br1.B = R(v), C(5)
	br1.Then, br1.Else = b2, b3
	b1.Insts = append(b1.Insts, br1)
	br2 := NewInstr(OpBr)
	br2.Cond = isa.CondLT
	br2.A, br2.B = R(v), C(3)
	br2.Then, br2.Else = b2, b1 // self-loop on b2, back edge to b1
	b2.Insts = append(b2.Insts, br2)
	ret := NewInstr(OpRet)
	b3.Insts = append(b3.Insts, ret)
	f.ComputeCFG()
	loops := FindLoops(f)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	if loops[0].Header != b2 || loops[0].Depth != 2 {
		t.Errorf("innermost-first order violated: first loop header B%d depth %d",
			loops[0].Header.ID, loops[0].Depth)
	}
	if loops[1].Header != b1 || loops[1].Depth != 1 {
		t.Errorf("outer loop wrong")
	}
	if !loops[1].Contains(b2) || loops[0].Contains(b1) {
		t.Errorf("inner loop not nested in the outer one")
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	f, bs := buildLoop()
	lv := ComputeLiveness(f)
	i := VReg(0)
	// i is live into the header (used by the branch) and live out of the
	// body (loop-carried).
	if !lv.In[bs[1]][i] {
		t.Errorf("i not live into header")
	}
	if !lv.Out[bs[2]][i] {
		t.Errorf("i not live out of latch")
	}
	if lv.In[bs[0]][i] {
		t.Errorf("i live into entry before its definition")
	}
}

func TestUsesAndReplaceUses(t *testing.T) {
	ld := NewInstr(OpLoad)
	ld.Dst = 3
	ld.Base = R(1)
	ld.Index = 2
	ld.Width = 8
	uses := ld.Uses(nil)
	if len(uses) != 2 || uses[0] != 1 || uses[1] != 2 {
		t.Errorf("load uses = %v", uses)
	}
	if !ld.ReplaceUses(1, R(9)) {
		t.Errorf("ReplaceUses reported no change")
	}
	if !ld.Base.IsReg(9) {
		t.Errorf("base not replaced")
	}
	// Index positions only accept register replacements.
	if ld.ReplaceUses(2, C(5)) {
		t.Errorf("index replaced with a constant")
	}
	call := NewInstr(OpCall)
	call.Callee = "f"
	call.Args = []Operand{R(4), C(1)}
	if !call.ReplaceUses(4, C(7)) {
		t.Errorf("call arg not replaced")
	}
	if v, ok := call.Args[0].IsConst(); !ok || v != 7 {
		t.Errorf("arg = %v", call.Args[0])
	}
}

func TestHasSideEffects(t *testing.T) {
	div := NewInstr(OpDiv)
	div.B = C(0)
	if !div.HasSideEffects() {
		t.Errorf("division by constant zero should be side-effecting (faults)")
	}
	div.B = C(4)
	if div.HasSideEffects() {
		t.Errorf("division by non-zero constant is pure")
	}
	div.B = R(1)
	if !div.HasSideEffects() {
		t.Errorf("division by unknown register must be kept")
	}
	if NewInstr(OpAdd).HasSideEffects() {
		t.Errorf("add is pure")
	}
	if !NewInstr(OpStore).HasSideEffects() {
		t.Errorf("store is side-effecting")
	}
}

func TestModuleLookups(t *testing.T) {
	m := &Module{
		Funcs:   []*Func{NewFunc("a", 0), NewFunc("b", 1)},
		Globals: []*Global{{Name: "g", Size: 8}},
	}
	if m.Func("b") == nil || m.Func("c") != nil {
		t.Errorf("Func lookup wrong")
	}
	if m.Global("g") == nil || m.Global("h") != nil {
		t.Errorf("Global lookup wrong")
	}
}

func TestStringRendering(t *testing.T) {
	f, _ := buildLoop()
	s := f.String()
	if s == "" {
		t.Errorf("empty rendering")
	}
	ld := NewInstr(OpLoad)
	ld.Dst = 1
	ld.Base = S("tbl", 8)
	ld.Off = 16
	ld.Width = 8
	if got := ld.String(); got != "v1 = load8 [&tbl+8+16]" {
		t.Errorf("load string = %q", got)
	}
}

// TestDominatorsRandomCFGs: on randomly wired CFGs, the entry dominates
// every reachable block, every block dominates itself, and the immediate
// dominator is a strict dominator of its block.
func TestDominatorsRandomCFGs(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		f := NewFunc("r", 0)
		n := 4 + seed%8
		blocks := make([]*Block, n)
		for i := range blocks {
			blocks[i] = f.NewBlock()
		}
		v := f.NewVReg()
		init := NewInstr(OpCopy)
		init.Dst = v
		init.A = C(int64(seed))
		blocks[0].Insts = append(blocks[0].Insts, init)
		// Deterministic pseudo-random edges.
		rnd := uint32(seed*2654435761 + 12345)
		next := func(m int) int {
			rnd = rnd*1664525 + 1013904223
			return int(rnd>>16) % m
		}
		for i, b := range blocks {
			if i == n-1 || next(5) == 0 {
				ret := NewInstr(OpRet)
				ret.A = R(v)
				b.Insts = append(b.Insts, ret)
				continue
			}
			br := NewInstr(OpBr)
			br.Cond = 0
			br.A, br.B = R(v), C(1)
			br.Then = blocks[1+next(n-1)]
			br.Else = blocks[1+next(n-1)]
			b.Insts = append(b.Insts, br)
		}
		f.ComputeCFG()
		entry := f.Blocks[0]
		idom := Idoms(entry, blockSuccs, blockPreds)
		for _, b := range f.Blocks {
			if !dominates(idom, entry, b) {
				t.Fatalf("seed %d: entry does not dominate B%d", seed, b.ID)
			}
			if !dominates(idom, b, b) {
				t.Fatalf("seed %d: B%d does not dominate itself", seed, b.ID)
			}
			if b != entry {
				id := idom[b]
				if id == nil || !dominates(idom, id, b) || id == b {
					t.Fatalf("seed %d: bad idom for B%d", seed, b.ID)
				}
			}
		}
		// Loop detection must terminate and produce bodies containing
		// their headers.
		for _, l := range FindLoops(f) {
			if !l.Contains(l.Header) {
				t.Fatalf("seed %d: loop body missing header", seed)
			}
		}
	}
}
