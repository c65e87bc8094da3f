// Package core implements the paper's primary contribution: the compiler
// heuristics of Section 4 that classify every static load instruction as
//
//	ld_n (NT, "neither")       — speculate on neither mechanism,
//	ld_p (PD, "predict")       — use the table-based address predictor,
//	ld_e (EC, "early calculate") — use the R_addr early-calculation path,
//
// plus the profile-guided reclassification of Section 4.3. The classifier
// runs on assembled machine code (after register allocation, the level at
// which base-register specifiers and addressing modes are final) and
// rewrites the load flavours of the program in place.
//
// Rationale encoded here (Section 4): R_addr is effective but scarce, so it
// is reserved for the loads whose addresses are not linear (load-dependent
// loads); and the prediction table is small, so non-linear loads must not
// be entered into it.
package core

import (
	"fmt"
	"strings"

	"elag/internal/isa"
)

// Class is a load classification.
type Class uint8

// Classes, named as in the paper's tables.
const (
	// NT — "neither": the load keeps ld_n.
	NT Class = iota
	// PD — "predict": the load becomes ld_p.
	PD
	// EC — "early calculate": the load becomes ld_e.
	EC
)

// String returns the table abbreviation.
func (c Class) String() string {
	switch c {
	case NT:
		return "NT"
	case PD:
		return "PD"
	case EC:
		return "EC"
	}
	return "?"
}

// Flavor converts the class to its instruction flavour.
func (c Class) Flavor() isa.LoadFlavor {
	switch c {
	case PD:
		return isa.LdP
	case EC:
		return isa.LdE
	default:
		return isa.LdN
	}
}

// Options tunes the classifier.
type Options struct {
	// MaxECGroups is how many base-register groups receive ld_e per
	// region. The paper reserves the single R_addr for the largest
	// group (1). Raising it models hardware with more addressing
	// registers.
	MaxECGroups int
	// AdditiveSLoad selects the paper's literal S_load algorithm: a
	// purely additive fixpoint in which a register stays in S_load for
	// the whole loop once any definition of it is load-derived. The
	// default is a kill-aware taint dataflow that implements the same
	// intent ("registers whose contents are loaded from the memory or
	// generated from a loaded value") precisely at each program point;
	// with a register allocator that reuses registers densely, the
	// additive version misclassifies arithmetic-dependent loads as
	// load-dependent (the conservatism Section 6 of the paper
	// discusses). Benchmarked as an ablation.
	AdditiveSLoad bool
}

// Classification maps each static load (by PC) to its class.
type Classification struct {
	ByPC map[int]Class
	// Reasons records, per classified PC, which heuristic produced the
	// class ("arithmetic-dep", "load-dep group r7", "acyclic absolute",
	// "promoted by profile", ...). Debugging aid; see DumpClasses.
	Reasons map[int]string
	// StaticNT/PD/EC count static loads per class.
	StaticNT, StaticPD, StaticEC int
}

// Reason returns the recorded heuristic for the load at pc ("" if none).
func (c *Classification) Reason(pc int) string { return c.Reasons[pc] }

// Class returns the class assigned to the load at pc (NT if absent).
func (c *Classification) Class(pc int) Class { return c.ByPC[pc] }

// StaticTotal returns the number of classified loads.
func (c *Classification) StaticTotal() int { return len(c.ByPC) }

// StaticShares returns the NT, PD and EC shares of static loads in percent.
func (c *Classification) StaticShares() (nt, pd, ec float64) {
	t := float64(c.StaticTotal())
	if t == 0 {
		return 0, 0, 0
	}
	return 100 * float64(c.StaticNT) / t, 100 * float64(c.StaticPD) / t, 100 * float64(c.StaticEC) / t
}

// Apply rewrites the program's load flavours according to the
// classification. Prefer Overlay for simulation: Apply mutates the shared
// Program, so concurrent simulations must not race with it.
func (c *Classification) Apply(p *isa.Program) {
	for pc, cl := range c.ByPC {
		p.Insts[pc].Flavor = cl.Flavor()
	}
}

// Overlay renders the classification as an immutable flavour overlay over
// p without touching p: the program's current flavours are snapshotted and
// the classified loads overridden. The result can parameterize any number
// of concurrent simulations sharing p and its trace.
func (c *Classification) Overlay(p *isa.Program) isa.FlavorOverlay {
	o := isa.ProgramFlavors(p)
	for pc, cl := range c.ByPC {
		if pc >= 0 && pc < len(o) {
			o[pc] = cl.Flavor()
		}
	}
	return o
}

// String summarizes the classification.
func (c *Classification) String() string {
	nt, pd, ec := c.StaticShares()
	return fmt.Sprintf("loads=%d NT=%.1f%% PD=%.1f%% EC=%.1f%%", c.StaticTotal(), nt, pd, ec)
}

// Classify runs the Section 4 heuristics over the whole program and returns
// the per-load classification (without modifying the program; call Apply).
func Classify(p *isa.Program, o Options) *Classification {
	if o.MaxECGroups == 0 {
		o.MaxECGroups = 1
	}
	c := &Classification{ByPC: make(map[int]Class), Reasons: make(map[int]string)}
	for _, f := range splitFunctions(p) {
		classifyFunc(p, f, o, c)
	}
	for _, cl := range c.ByPC {
		switch cl {
		case NT:
			c.StaticNT++
		case PD:
			c.StaticPD++
		case EC:
			c.StaticEC++
		}
	}
	return c
}

// ClassifyAndApply is the convenience form used by the build pipeline.
func ClassifyAndApply(p *isa.Program, o Options) *Classification {
	c := Classify(p, o)
	c.Apply(p)
	return c
}

func classifyFunc(p *isa.Program, f *mfunc, o Options, c *Classification) {
	assigned := make(map[int]bool) // PCs classified by an inner loop
	assign := func(pc int, cl Class, why string) {
		if assigned[pc] {
			return
		}
		c.ByPC[pc] = cl
		c.Reasons[pc] = why
		assigned[pc] = true
	}

	// Cyclic code: nested loops are sorted and inner loops analyzed
	// first (Section 4.1); a load keeps the class its innermost
	// enclosing loop gave it.
	for _, l := range findMLoops(f) {
		classifyLoop(p, l, o, assign, assigned)
	}

	// Acyclic code (Section 4.2): loads from absolute locations are
	// ld_p; the rest are grouped by base register, the largest group
	// gets ld_e, the remainder ld_n.
	var acyclic []int
	inLoop := make(map[int]bool)
	for _, l := range findMLoops(f) {
		for b := range l.blocks {
			for pc := b.start; pc < b.end; pc++ {
				inLoop[pc] = true
			}
		}
	}
	for pc := f.start; pc < f.end; pc++ {
		if p.Insts[pc].IsLoad() && !inLoop[pc] && !assigned[pc] {
			acyclic = append(acyclic, pc)
		}
	}
	var grouped []int
	for _, pc := range acyclic {
		if p.Insts[pc].Mode == isa.AMAbsolute {
			assign(pc, PD, "acyclic absolute")
		} else {
			grouped = append(grouped, pc)
		}
	}
	assignGroups(p, grouped, o, assign, "acyclic")
}

// classifyLoop applies the cyclic heuristics of Section 4.1 to one loop:
// compute S_load (the registers holding loaded or load-derived values),
// split the loop's loads into load-dependent and arithmetic-dependent, give
// the largest load-dependent base-register group ld_e, the other
// load-dependent loads ld_n, and the arithmetic-dependent loads ld_p.
func classifyLoop(p *isa.Program, l *mloop, o Options, assign func(int, Class, string), assigned map[int]bool) {
	var dep func(pc int, in *isa.Inst) bool
	if o.AdditiveSLoad {
		sload := additiveSLoad(p, l)
		dep = func(pc int, in *isa.Inst) bool {
			switch in.Mode {
			case isa.AMRegOffset:
				return sload[in.Base]
			case isa.AMRegReg:
				return sload[in.Base] || sload[in.Index]
			}
			return false
		}
	} else {
		taintAt := taintSLoad(p, l)
		dep = func(pc int, in *isa.Inst) bool {
			t := taintAt[pc]
			switch in.Mode {
			case isa.AMRegOffset:
				return t.get(in.Base)
			case isa.AMRegReg:
				return t.get(in.Base) || t.get(in.Index)
			}
			return false
		}
	}

	// Step 3: split into load-dependent and arithmetic-dependent loads.
	var loadDep, arithDep []int
	for b := range l.blocks {
		for pc := b.start; pc < b.end; pc++ {
			in := &p.Insts[pc]
			if !in.IsLoad() || assigned[pc] {
				continue
			}
			if dep(pc, in) {
				loadDep = append(loadDep, pc)
			} else {
				arithDep = append(arithDep, pc)
			}
		}
	}
	assignGroups(p, loadDep, o, assign, "load-dep")
	for _, pc := range arithDep {
		assign(pc, PD, "arithmetic-dep")
	}
}

// additiveSLoad is the paper's literal Section 4.1 algorithm: step 1 seeds
// S_load with every load destination in the loop; step 2 adds the
// destination of any arithmetic instruction reading an S_load register,
// repeated to a fixpoint. No register ever leaves the set.
func additiveSLoad(p *isa.Program, l *mloop) map[isa.Reg]bool {
	sload := make(map[isa.Reg]bool)
	eachInst := func(fn func(in *isa.Inst)) {
		for b := range l.blocks {
			for pc := b.start; pc < b.end; pc++ {
				fn(&p.Insts[pc])
			}
		}
	}
	eachInst(func(in *isa.Inst) {
		if in.Op == isa.OpLoad && in.Rd != isa.RegZero {
			sload[in.Rd] = true
		}
	})
	var scratch []isa.Reg
	for again := true; again; {
		again = false
		eachInst(func(in *isa.Inst) {
			if !in.IsALU() || in.Rd == isa.RegZero || sload[in.Rd] {
				return
			}
			scratch = in.IntRegsRead(scratch[:0])
			for _, r := range scratch {
				if r != isa.RegZero && sload[r] {
					sload[in.Rd] = true
					again = true
					return
				}
			}
		})
	}
	return sload
}

// regSet is a 64-register bit set.
type regSet uint64

func (s regSet) get(r isa.Reg) bool { return s&(1<<uint(r)) != 0 }
func (s *regSet) set(r isa.Reg)     { *s |= 1 << uint(r) }
func (s *regSet) clear(r isa.Reg)   { *s &^= 1 << uint(r) }
func (s *regSet) union(o regSet)    { *s |= o }

// taintSLoad computes, for every instruction in the loop, which registers
// hold load-derived values just before it executes — a forward "taint"
// dataflow with kills over the loop body. Loop entry starts untainted
// (values computed before the loop are, from the loop's perspective,
// invariant); taint flows around the back edges to a fixpoint.
func taintSLoad(p *isa.Program, l *mloop) map[int]regSet {
	in := make(map[*mblock]regSet, len(l.blocks))
	out := make(map[*mblock]regSet, len(l.blocks))

	var scratch []isa.Reg
	step := func(t regSet, inst *isa.Inst) regSet {
		switch {
		case inst.Op == isa.OpLoad:
			if inst.Rd != isa.RegZero {
				t.set(inst.Rd)
			}
		case inst.Op == isa.OpCall:
			// The callee's result arrives in r1 and may be loaded
			// from memory; caller-saved registers are clobbered
			// with unknown (possibly loaded) values. This is the
			// conservatism about calls in loops that Section 6 of
			// the paper discusses.
			for r := isa.Reg(1); r < 32; r++ {
				t.set(r)
			}
			if inst.Rd != isa.RegZero {
				t.clear(inst.Rd) // the link register holds a PC
			}
		case inst.IsALU():
			if inst.Rd == isa.RegZero {
				break
			}
			tainted := false
			scratch = inst.IntRegsRead(scratch[:0])
			for _, r := range scratch {
				if r != isa.RegZero && t.get(r) {
					tainted = true
					break
				}
			}
			if tainted {
				t.set(inst.Rd)
			} else {
				t.clear(inst.Rd)
			}
		}
		return t
	}

	for changed := true; changed; {
		changed = false
		for b := range l.blocks {
			var newIn regSet
			for _, pr := range b.preds {
				if l.blocks[pr] {
					newIn.union(out[pr])
				}
			}
			t := newIn
			for pc := b.start; pc < b.end; pc++ {
				t = step(t, &p.Insts[pc])
			}
			if newIn != in[b] || t != out[b] {
				in[b], out[b] = newIn, t
				changed = true
			}
		}
	}

	at := make(map[int]regSet)
	for b := range l.blocks {
		t := in[b]
		for pc := b.start; pc < b.end; pc++ {
			at[pc] = t
			t = step(t, &p.Insts[pc])
		}
	}
	return at
}

// assignGroups groups loads by base-register specifier and gives the
// largest group(s) ld_e; register+register members and all other groups get
// ld_n (the base register "is not used by many other loads, or [the]
// addressing mode is not register+offset" — Section 4).
func assignGroups(p *isa.Program, pcs []int, o Options, assign func(int, Class, string), ctx string) {
	groups := make(map[isa.Reg][]int)
	for _, pc := range pcs {
		in := &p.Insts[pc]
		if in.Mode == isa.AMAbsolute {
			assign(pc, NT, ctx+" absolute")
			continue
		}
		groups[in.Base] = append(groups[in.Base], pc)
	}
	// Order groups by size (desc), then register number for determinism.
	type grp struct {
		reg  isa.Reg
		size int
	}
	var order []grp
	for r, members := range groups {
		order = append(order, grp{reg: r, size: len(members)})
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if b.size > a.size || (b.size == a.size && b.reg < a.reg) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	for i, g := range order {
		why := fmt.Sprintf("%s group r%d (%d loads)", ctx, g.reg, g.size)
		for _, pc := range groups[g.reg] {
			switch {
			case i >= o.MaxECGroups:
				assign(pc, NT, why+" not largest")
			case p.Insts[pc].Mode != isa.AMRegOffset:
				assign(pc, NT, why+" not reg+offset")
			default:
				assign(pc, EC, why)
			}
		}
	}
}

// Reclassify applies the profile-guided adjustment of Section 4.3: a load
// classified NT whose profiled address-prediction rate exceeds threshold is
// changed to PD. Nothing else is overruled. rates maps static load PCs to
// prediction rates in [0,1]; threshold 0 means the paper's 0.60.
func Reclassify(c *Classification, rates map[int]float64, threshold float64) *Classification {
	if threshold == 0 {
		threshold = 0.60
	}
	n := &Classification{
		ByPC:    make(map[int]Class, len(c.ByPC)),
		Reasons: make(map[int]string, len(c.ByPC)),
	}
	for pc, cl := range c.ByPC {
		why := c.Reasons[pc]
		if cl == NT {
			if r, ok := rates[pc]; ok && r > threshold {
				cl = PD
				why = fmt.Sprintf("promoted by profile (rate %.2f > %.2f)", r, threshold)
			}
		}
		n.ByPC[pc] = cl
		n.Reasons[pc] = why
	}
	for _, cl := range n.ByPC {
		switch cl {
		case NT:
			n.StaticNT++
		case PD:
			n.StaticPD++
		case EC:
			n.StaticEC++
		}
	}
	return n
}

// Describe renders a per-load classification listing for debugging.
func Describe(p *isa.Program, c *Classification) string {
	var sb strings.Builder
	for pc := range p.Insts {
		if cl, ok := c.ByPC[pc]; ok {
			fmt.Fprintf(&sb, "%6d  %-2s  %s\n", pc, cl, p.Insts[pc].String())
		}
	}
	return sb.String()
}
