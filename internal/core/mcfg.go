package core

import (
	"sort"

	"elag/internal/ir"
	"elag/internal/isa"
)

// This file builds the machine-level control-flow graph the classifier
// analyzes: function extents, basic blocks and their edges over assembled
// programs. The heuristics run after code generation (the hardware sees
// physical base registers), so the classifier builds machine blocks rather
// than reusing the virtual-register IR; it finds their loops with the IR's
// dominator and natural-loop analyses, which are generic over the node
// type.

// mblock is a machine basic block: instructions [start, end) of the program.
type mblock struct {
	id         int
	start, end int
	succs      []*mblock
	preds      []*mblock
}

// mfunc is the machine CFG of one function.
type mfunc struct {
	name       string
	start, end int
	blocks     []*mblock // blocks[0] is the entry
}

// splitFunctions partitions the program into functions: the entry point and
// every call target begin a function; each function extends to the next
// function start. A function is named by the least symbol at its start, so
// aliases (a function and its first block's label) name it the same way on
// every run.
func splitFunctions(p *isa.Program) []*mfunc {
	starts := map[int]string{p.Entry: ""}
	for _, in := range p.Insts {
		if in.Op == isa.OpCall {
			starts[in.Target] = ""
		}
	}
	for name, pc := range p.Symbols {
		if cur, ok := starts[pc]; ok && (cur == "" || name < cur) {
			starts[pc] = name
		}
	}
	if starts[p.Entry] == "" {
		starts[p.Entry] = "entry"
	}
	pcs := make([]int, 0, len(starts))
	for pc := range starts {
		if pc >= 0 && pc < len(p.Insts) {
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)
	var funcs []*mfunc
	for i, pc := range pcs {
		end := len(p.Insts)
		if i+1 < len(pcs) {
			end = pcs[i+1]
		}
		funcs = append(funcs, &mfunc{name: starts[pc], start: pc, end: end})
	}
	for _, f := range funcs {
		buildBlocks(p, f)
	}
	return funcs
}

// buildBlocks constructs basic blocks and edges for f. Calls are treated as
// sequential (control returns), jr ends control flow (function return), and
// branch targets outside the function are treated as exits.
func buildBlocks(p *isa.Program, f *mfunc) {
	leader := map[int]bool{f.start: true}
	for pc := f.start; pc < f.end; pc++ {
		in := &p.Insts[pc]
		switch in.Op {
		case isa.OpBr, isa.OpJmp:
			if in.Target >= f.start && in.Target < f.end {
				leader[in.Target] = true
			}
			if pc+1 < f.end {
				leader[pc+1] = true
			}
		case isa.OpJr, isa.OpHalt:
			if pc+1 < f.end {
				leader[pc+1] = true
			}
		}
	}
	var starts []int
	for pc := range leader {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	byStart := make(map[int]*mblock, len(starts))
	for i, s := range starts {
		end := f.end
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := &mblock{id: i, start: s, end: end}
		f.blocks = append(f.blocks, b)
		byStart[s] = b
	}
	edge := func(from *mblock, to int) {
		t, ok := byStart[to]
		if !ok {
			return
		}
		from.succs = append(from.succs, t)
		t.preds = append(t.preds, from)
	}
	for _, b := range f.blocks {
		if b.end == b.start {
			continue
		}
		last := &p.Insts[b.end-1]
		switch last.Op {
		case isa.OpBr:
			edge(b, last.Target)
			edge(b, b.end)
		case isa.OpJmp:
			edge(b, last.Target)
		case isa.OpJr, isa.OpHalt:
			// No intra-function successors.
		default:
			edge(b, b.end)
		}
	}
}

// mloop is a natural loop over machine blocks.
type mloop = ir.LoopOf[*mblock]

// findMLoops returns f's natural loops sorted innermost (deepest) first.
func findMLoops(f *mfunc) []*mloop { return ir.NaturalLoops(f.blocks, msuccs, mpreds) }

func msuccs(b *mblock) []*mblock { return b.succs }
func mpreds(b *mblock) []*mblock { return b.preds }
