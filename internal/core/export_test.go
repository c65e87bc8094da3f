package core

import "elag/internal/isa"

// FuncLoops is one function's machine CFG, entry block first, and the
// loops the classifier finds in it.
type FuncLoops struct {
	Name   string
	Blocks []*mblock
	Loops  []*mloop
}

// MachineLoops returns every function of p as the classifier sees it.
func MachineLoops(p *isa.Program) []FuncLoops {
	var out []FuncLoops
	for _, f := range splitFunctions(p) {
		out = append(out, FuncLoops{Name: f.name, Blocks: f.blocks, Loops: findMLoops(f)})
	}
	return out
}

// Succs and Preds return a machine block's CFG successors and
// predecessors.
var Succs, Preds = msuccs, mpreds
