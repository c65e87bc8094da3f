package opt

import "elag/internal/ir"

// LICM performs loop-invariant code removal: pure computations (and, when
// the loop is store- and call-free, loads) whose operands do not change
// inside a loop are hoisted to a preheader block. Only registers with a
// single static definition are hoisted, so the hoisted instruction cannot
// clobber another definition. Returns whether anything changed.
func LICM(f *ir.Func) bool {
	f.ComputeCFG()
	loops := ir.FindLoops(f)
	changed := false
	for {
		hoisted := false
		for _, l := range loops {
			if hoistLoop(f, l) {
				hoisted = true
				changed = true
				// Adding a preheader invalidates the CFG
				// analyses; recompute and restart.
				f.ComputeCFG()
				loops = ir.FindLoops(f)
				break
			}
		}
		if !hoisted {
			return changed
		}
	}
}

func hoistLoop(f *ir.Func, l *ir.Loop) bool {
	_, single := defCounts(f)

	// Registers defined anywhere in the loop are variant until proven
	// invariant.
	definedInLoop := make(map[ir.VReg]bool)
	hasStoreOrCall := false
	for _, b := range l.Blocks {
		for _, in := range b.Insts {
			if in.Dst != ir.NoVReg {
				definedInLoop[in.Dst] = true
			}
			if in.Op == ir.OpStore || in.Op == ir.OpCall {
				hasStoreOrCall = true
			}
		}
	}

	invariant := make(map[ir.VReg]bool)
	opndInv := func(o ir.Operand) bool {
		switch o.Kind {
		case ir.OpndReg:
			return !definedInLoop[o.Reg] || invariant[o.Reg]
		default:
			return true
		}
	}
	instInv := func(in *ir.Instr) bool {
		switch {
		case in.Op.IsBinary() || in.Op == ir.OpCopy || in.Op == ir.OpCmp:
			if in.HasSideEffects() { // div/rem with unproven divisor
				return false
			}
			return opndInv(in.A) && opndInv(in.B)
		case in.Op == ir.OpLoad && !hasStoreOrCall:
			if !opndInv(in.Base) {
				return false
			}
			return in.Index == ir.NoVReg || !definedInLoop[in.Index] || invariant[in.Index]
		}
		return false
	}

	// Fixpoint: an instruction is invariant if all register operands are
	// defined outside the loop or by invariant single-def instructions.
	var hoist []*ir.Instr
	hoistSet := make(map[*ir.Instr]bool)
	for again := true; again; {
		again = false
		for _, b := range l.Blocks {
			for _, in := range b.Insts {
				if in.Dst == ir.NoVReg || hoistSet[in] || single[in.Dst] != in {
					continue
				}
				if instInv(in) {
					hoistSet[in] = true
					invariant[in.Dst] = true
					hoist = append(hoist, in)
					again = true
				}
			}
		}
	}
	if len(hoist) == 0 {
		return false
	}

	pre := ensurePreheader(f, l)
	// Remove from loop blocks, preserving relative order, and insert at
	// the end of the preheader before its terminator.
	for _, b := range l.Blocks {
		kept := b.Insts[:0]
		for _, in := range b.Insts {
			if hoistSet[in] {
				continue
			}
			kept = append(kept, in)
		}
		b.Insts = kept
	}
	term := pre.Insts[len(pre.Insts)-1]
	pre.Insts = pre.Insts[:len(pre.Insts)-1]
	// hoist preserves loop-body order per block; dependencies among
	// hoisted instructions were discovered in dependency order by the
	// fixpoint, but re-sort by the order they appear in the hoist list,
	// which the fixpoint built bottom-up; a second pass ensures defs
	// precede uses.
	pre.Insts = append(pre.Insts, orderByDeps(hoist)...)
	pre.Insts = append(pre.Insts, term)
	return true
}

// orderByDeps topologically sorts hoisted pure instructions so every
// definition precedes its uses.
func orderByDeps(ins []*ir.Instr) []*ir.Instr {
	defs := make(map[ir.VReg]*ir.Instr, len(ins))
	for _, in := range ins {
		defs[in.Dst] = in
	}
	var out []*ir.Instr
	state := make(map[*ir.Instr]int) // 0 new, 1 visiting, 2 done
	var visit func(in *ir.Instr)
	visit = func(in *ir.Instr) {
		if state[in] != 0 {
			return
		}
		state[in] = 1
		for _, u := range in.Uses(nil) {
			if d := defs[u]; d != nil && state[d] == 0 {
				visit(d)
			}
		}
		state[in] = 2
		out = append(out, in)
	}
	for _, in := range ins {
		visit(in)
	}
	return out
}

// ensurePreheader returns the unique out-of-loop predecessor of the loop
// header, creating one if needed by redirecting all entry edges through a
// fresh block.
func ensurePreheader(f *ir.Func, l *ir.Loop) *ir.Block {
	var outside []*ir.Block
	for _, p := range l.Header.Preds {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		p := outside[0]
		if t := p.Term(); t != nil && t.Op == ir.OpJmp && len(p.Succs) == 1 {
			return p
		}
	}
	pre := f.NewBlock()
	jmp := ir.NewInstr(ir.OpJmp)
	jmp.To = l.Header
	pre.Insts = append(pre.Insts, jmp)
	for _, p := range outside {
		t := p.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case ir.OpJmp:
			if t.To == l.Header {
				t.To = pre
			}
		case ir.OpBr:
			if t.Then == l.Header {
				t.Then = pre
			}
			if t.Else == l.Header {
				t.Else = pre
			}
		}
	}
	// If the header is the function entry, the new preheader must become
	// the entry block.
	if f.Blocks[0] == l.Header {
		for i, b := range f.Blocks {
			if b == pre {
				f.Blocks[0], f.Blocks[i] = f.Blocks[i], f.Blocks[0]
				break
			}
		}
	}
	f.ComputeCFG()
	return pre
}
