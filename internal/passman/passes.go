package passman

import (
	"fmt"

	"elag/internal/asm"
	"elag/internal/codegen"
	"elag/internal/core"
	"elag/internal/ir"
	"elag/internal/opt"
)

// The registered per-function IR passes. These are the building blocks of
// fixpoint groups; each is also usable standalone in a -passes= spec
// (wrapped to run once over every function).
var funcPasses = map[string]FuncPass{
	"constprop": {
		Name: "constprop",
		Desc: "constant folding and local/global constant propagation",
		Run:  wrapBool(opt.ConstProp),
	},
	"cse": {
		Name: "cse",
		Desc: "local common-subexpression elimination",
		Run:  wrapBool(opt.LocalCSE),
	},
	"copyprop": {
		Name: "copyprop",
		Desc: "local/global copy propagation",
		Run:  wrapBool(opt.CopyProp),
	},
	"coalesce": {
		Name: "coalesce",
		Desc: "virtual-register copy coalescing",
		Run:  wrapBool(opt.CoalesceCopies),
	},
	"rle": {
		Name: "rle",
		Desc: "redundant load elimination and store-to-load forwarding",
		Run:  wrapBool(opt.RedundantLoadElim),
	},
	"dce": {
		Name: "dce",
		Desc: "dead-code elimination",
		Run:  wrapBool(opt.DeadCodeElim),
	},
	"licm": {
		Name: "licm",
		Desc: "loop-invariant code motion",
		Run:  wrapBool(opt.LICM),
	},
	"iv": {
		Name: "iv",
		Desc: "induction-variable strength reduction, then addressing-mode folding once reduction converges",
		// Folding an add that is about to become a pointer induction
		// variable would hide it from the reducer, so the fold half
		// only runs on iterations where reduction found nothing —
		// preserving the schedule the classifier's striding-load
		// shapes depend on.
		Run: func(f *ir.Func) (bool, error) {
			sr := opt.StrengthReduce(f)
			changed := sr
			if !sr {
				changed = opt.FoldAddressing(f) || changed
			}
			return changed, nil
		},
	},
}

func wrapBool(fn func(*ir.Func) bool) func(*ir.Func) (bool, error) {
	return func(f *ir.Func) (bool, error) { return fn(f), nil }
}

// forAll wraps a per-function pass as a module pass running it once over
// every function.
func forAll(fp FuncPass) *Pass {
	return &Pass{
		Name: fp.Name,
		Desc: fp.Desc,
		Kind: KindIR,
		Run: func(st *State) (bool, error) {
			changed := false
			for _, f := range st.Module.Funcs {
				f.ComputeCFG()
				c, err := fp.Run(f)
				if err != nil {
					return changed, err
				}
				changed = changed || c
			}
			return changed, nil
		},
	}
}

// InlinePass returns the module-level inlining pass: expand callees of at
// most 40 IR instructions into their call sites, then prune functions no
// call reaches.
func InlinePass() *Pass {
	return &Pass{
		Name: "inline",
		Desc: "function inlining plus dead-function pruning",
		Kind: KindIR,
		Run: func(st *State) (bool, error) {
			changed := opt.Inline(st.Module, 40)
			changed = opt.PruneDeadFuncs(st.Module) || changed
			return changed, nil
		},
	}
}

// MatSymPass returns the symbol-materialization epilogue: keep global
// addresses in registers where it pays, then hoist the materializations out
// of loops and sweep the dead address arithmetic. No propagation pass may
// run after it (it would fold the addresses back in), which is why it is a
// pipeline step rather than a fixpoint member.
func MatSymPass() *Pass {
	return &Pass{
		Name: "matsym",
		Desc: "global-address materialization (+ LICM/DCE cleanup)",
		Kind: KindIR,
		Run: func(st *State) (bool, error) {
			changed := false
			for _, f := range st.Module.Funcs {
				if opt.MaterializeSyms(f) {
					changed = true
					opt.LICM(f)
					opt.DeadCodeElim(f)
				}
			}
			return changed, nil
		},
	}
}

// LowerPass returns the lowering step: code generation (linear-scan
// allocation, instruction selection) followed by assembly. After it,
// State.Asm and State.Machine are set.
func LowerPass() *Pass {
	return &Pass{
		Name: "lower",
		Desc: "code generation and assembly",
		Kind: KindLower,
		Run: func(st *State) (bool, error) {
			text, err := codegen.Generate(st.Module)
			if err != nil {
				return false, err
			}
			prog, err := asm.Assemble(text)
			if err != nil {
				return false, fmt.Errorf("internal: generated assembly does not assemble: %w", err)
			}
			st.Asm = text
			st.Machine = prog
			return true, nil
		},
	}
}

// ClassifyPass returns the paper's Section 4 load classifier as a machine
// pass, parameterized by State.ClassifyOpts.
func ClassifyPass() *Pass {
	return &Pass{
		Name: "classify",
		Desc: "Section 4 load classification",
		Kind: KindMachine,
		Run: func(st *State) (bool, error) {
			if st.Machine == nil {
				return false, fmt.Errorf("no machine program (missing lower pass?)")
			}
			st.Classes = core.ClassifyAndApply(st.Machine, st.ClassifyOpts)
			return st.Classes.StaticTotal() > 0, nil
		},
	}
}

// modulePass resolves the named module-level pass, constructing it fresh
// (passes are stateless; construction is cheap).
func modulePass(name string) (*Pass, bool) {
	switch name {
	case "inline":
		return InlinePass(), true
	case "matsym":
		return MatSymPass(), true
	case "lower":
		return LowerPass(), true
	case "classify":
		return ClassifyPass(), true
	}
	if fp, ok := funcPasses[name]; ok {
		return forAll(fp), true
	}
	return nil, false
}

// Names lists every registered pass name: the per-function passes sorted,
// then the module passes in flow order.
func Names() []string {
	return append(funcPassNames(), "inline", "matsym", "lower", "classify")
}

// Describe returns the one-line description of a registered pass.
func Describe(name string) string {
	if fp, ok := funcPasses[name]; ok {
		return fp.Desc
	}
	if p, ok := modulePass(name); ok {
		return p.Desc
	}
	return ""
}
