package opt

import "elag/internal/ir"

// StrengthReduce performs induction-variable strength reduction. For each
// loop it finds basic induction variables (v = v + c with a single in-loop
// definition) and linear derived values t = v*k, t = v<<k, t = v + inv,
// t = v - inv, rewriting each as a new induction variable that is
// initialized in the preheader and stepped next to the basic variable's
// increment. Chains reduce across optimization rounds because each new
// variable is itself a basic induction variable on the next round.
//
// This is the pass that turns array address arithmetic into striding
// pointer registers — the paper's Figure 4 shape "ld_p r4, r17(0); add
// r17, r17, 4" — and it is what lets the classifier see those loads as
// arithmetic-dependent (predictable).
func StrengthReduce(f *ir.Func) bool {
	f.ComputeCFG()
	loops := ir.FindLoops(f)
	changed := false
	for {
		reduced := false
		for _, l := range loops {
			if reduceLoop(f, l) {
				reduced = true
				changed = true
				f.ComputeCFG()
				loops = ir.FindLoops(f)
				break
			}
		}
		if !reduced {
			return changed
		}
	}
}

type basicIV struct {
	v    ir.VReg
	step int64
	inc  *ir.Instr // the in-loop increment: v = v +/- const
	blk  *ir.Block // block containing inc
	pos  int       // index of inc within blk.Insts
}

func findBasicIVs(l *ir.Loop) []basicIV {
	// Count in-loop definitions per register and remember single defs.
	defs := make(map[ir.VReg]int)
	singleIn := make(map[ir.VReg]*ir.Instr)
	for _, b := range l.Blocks {
		for _, in := range b.Insts {
			if in.Dst != ir.NoVReg {
				defs[in.Dst]++
				if defs[in.Dst] == 1 {
					singleIn[in.Dst] = in
				} else {
					delete(singleIn, in.Dst)
				}
			}
		}
	}
	var ivs []basicIV
	for _, b := range l.Blocks {
		for pos, in := range b.Insts {
			if in.Dst == ir.NoVReg || defs[in.Dst] != 1 {
				continue
			}
			// Direct form: v = v +/- const.
			if (in.Op == ir.OpAdd || in.Op == ir.OpSub) && in.A.IsReg(in.Dst) {
				if c, ok := in.B.IsConst(); ok {
					if in.Op == ir.OpSub {
						c = -c
					}
					ivs = append(ivs, basicIV{v: in.Dst, step: c, inc: in, blk: b, pos: pos})
				}
				continue
			}
			// Front-end form: t = v +/- const; v = copy t. The copy
			// is the increment point (v and t both carry the new
			// value from there on).
			if in.Op == ir.OpCopy && in.A.Kind == ir.OpndReg {
				t := in.A.Reg
				td := singleIn[t]
				if td == nil || (td.Op != ir.OpAdd && td.Op != ir.OpSub) {
					continue
				}
				if !td.A.IsReg(in.Dst) {
					continue
				}
				c, ok := td.B.IsConst()
				if !ok {
					continue
				}
				if td.Op == ir.OpSub {
					c = -c
				}
				ivs = append(ivs, basicIV{v: in.Dst, step: c, inc: in, blk: b, pos: pos})
			}
		}
	}
	return ivs
}

func reduceLoop(f *ir.Func, l *ir.Loop) bool {
	ivs := findBasicIVs(l)
	if len(ivs) == 0 {
		return false
	}
	ivByReg := make(map[ir.VReg]*basicIV, len(ivs))
	for i := range ivs {
		ivByReg[ivs[i].v] = &ivs[i]
	}
	_, single := defCounts(f)

	invariant := func(o ir.Operand) bool {
		if o.Kind != ir.OpndReg {
			return o.Kind != ir.OpndNone
		}
		for _, b := range l.Blocks {
			for _, in := range b.Insts {
				if in.Dst == o.Reg {
					return false
				}
			}
		}
		return true
	}
	memBases := make(map[ir.VReg]bool)
	for _, b := range l.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				if in.Base.Kind == ir.OpndReg {
					memBases[in.Base.Reg] = true
				}
				if in.Index != ir.NoVReg {
					memBases[in.Index] = true
				}
			}
		}
	}

	// Find one reducible derived value; the driver's rounds get the rest.
	for _, b := range l.Blocks {
		for _, in := range b.Insts {
			if in.Dst == ir.NoVReg || single[in.Dst] != in || ivByReg[in.Dst] != nil {
				continue
			}
			var iv *basicIV
			var step int64
			var initA, initB ir.Operand
			op := in.Op
			switch in.Op {
			case ir.OpMul, ir.OpSll:
				// t = v * k  or  t = v << k.
				if in.A.Kind != ir.OpndReg {
					continue
				}
				iv = ivByReg[in.A.Reg]
				k, ok := in.B.IsConst()
				if iv == nil || !ok {
					continue
				}
				if in.Op == ir.OpMul {
					step = iv.step * k
				} else {
					step = iv.step << (uint64(k) & 63)
				}
				initA, initB = in.A, in.B
			case ir.OpAdd, ir.OpSub:
				// t = v + inv / inv + v / v - inv: only worth a
				// new variable when t addresses memory.
				if !memBases[in.Dst] {
					continue
				}
				switch {
				case in.A.Kind == ir.OpndReg && ivByReg[in.A.Reg] != nil && invariant(in.B):
					iv = ivByReg[in.A.Reg]
					initA, initB = in.A, in.B
				case in.Op == ir.OpAdd && in.B.Kind == ir.OpndReg && ivByReg[in.B.Reg] != nil && invariant(in.A):
					iv = ivByReg[in.B.Reg]
					initA, initB = in.A, in.B
				default:
					continue
				}
				step = iv.step
			default:
				continue
			}
			if step == 0 {
				continue
			}

			// Materialize the new induction variable.
			pre := ensurePreheader(f, l)
			p := f.NewVReg()
			init := ir.NewInstr(op)
			init.Dst = p
			init.A, init.B = initA, initB
			init.Cond = in.Cond
			term := pre.Insts[len(pre.Insts)-1]
			pre.Insts = pre.Insts[:len(pre.Insts)-1]
			pre.Insts = append(pre.Insts, init, term)

			// Step it right after the basic IV's increment.
			stepIn := ir.NewInstr(ir.OpAdd)
			stepIn.Dst = p
			stepIn.A = ir.R(p)
			stepIn.B = ir.C(step)
			blk := iv.blk
			// Recompute the increment's position (it may have
			// moved as instructions were edited).
			pos := -1
			for i2, x := range blk.Insts {
				if x == iv.inc {
					pos = i2
					break
				}
			}
			if pos < 0 {
				return false
			}
			blk.Insts = append(blk.Insts, nil)
			copy(blk.Insts[pos+2:], blk.Insts[pos+1:])
			blk.Insts[pos+1] = stepIn

			// The old computation becomes a copy.
			in.Op = ir.OpCopy
			in.A = ir.R(p)
			in.B = ir.Operand{}
			return true
		}
	}
	return false
}

// FoldAddressing folds same-block address arithmetic into load/store
// addressing modes: with b defined in the same block as the memory access
// (and neither b nor its operands redefined in between),
//
//	b = add x, c ; mem[b]      =>  mem[x + c]        (register+offset)
//	b = add x, y ; mem[b]      =>  mem[x + y]        (register+register)
//	b = add &g, y ; mem[b]     =>  mem[&g + y]       (absolute + index)
//
// exposing the ISA addressing modes the paper's heuristics distinguish.
func FoldAddressing(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		// cand maps a register to its defining add within this block,
		// invalidated when the register or the add's operands are
		// redefined.
		cand := make(map[ir.VReg]*ir.Instr)
		kill := func(v ir.VReg) {
			delete(cand, v)
			for k, d := range cand {
				if d.A.IsReg(v) || d.B.IsReg(v) {
					delete(cand, k)
				}
			}
		}
		for _, in := range b.Insts {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				if in.Base.Kind == ir.OpndReg {
					if d := cand[in.Base.Reg]; d != nil && foldInto(in, d) {
						changed = true
					}
				}
			}
			if in.Dst != ir.NoVReg {
				kill(in.Dst)
				// Self-referencing adds (induction-variable
				// steps) must not fold: the base would be read
				// after its own update.
				if in.Op == ir.OpAdd && !in.A.IsReg(in.Dst) && !in.B.IsReg(in.Dst) {
					cand[in.Dst] = in
				}
			}
		}
	}
	return changed
}

// foldInto rewrites mem's address using the defining add d; returns whether
// it folded.
func foldInto(mem, d *ir.Instr) bool {
	a, bo := d.A, d.B
	if c, ok := bo.IsConst(); ok {
		switch a.Kind {
		case ir.OpndReg, ir.OpndSym, ir.OpndFrame:
			mem.Base = a
			mem.Off += c
			return true
		}
		return false
	}
	if c, ok := a.IsConst(); ok {
		if bo.Kind == ir.OpndReg {
			mem.Base = bo
			mem.Off += c
			return true
		}
		return false
	}
	// Both register-ish: need a free index slot and a register operand.
	if mem.Index != ir.NoVReg {
		return false
	}
	switch {
	case a.Kind == ir.OpndReg && bo.Kind == ir.OpndReg:
		mem.Base = a
		mem.Index = bo.Reg
		return true
	case (a.Kind == ir.OpndSym || a.Kind == ir.OpndFrame) && bo.Kind == ir.OpndReg:
		mem.Base = a
		mem.Index = bo.Reg
		return true
	case a.Kind == ir.OpndReg && (bo.Kind == ir.OpndSym || bo.Kind == ir.OpndFrame):
		mem.Base = bo
		mem.Index = a.Reg
		return true
	}
	return false
}
