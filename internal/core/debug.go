package core

import (
	"fmt"
	"sort"
	"strings"

	"elag/internal/isa"
)

// DumpClasses renders the per-load classification listing with the
// heuristic that produced each class — pc, class, reason, instruction —
// grouped by function (exposed through elag-cc -dump-classes).
func DumpClasses(p *isa.Program, c *Classification) string {
	var sb strings.Builder
	for _, f := range splitFunctions(p) {
		header := false
		for pc := f.start; pc < f.end; pc++ {
			cl, ok := c.ByPC[pc]
			if !ok {
				continue
			}
			if !header {
				fmt.Fprintf(&sb, "func %s:\n", f.name)
				header = true
			}
			fmt.Fprintf(&sb, "  %6d  %-2s  %-34s %s\n", pc, cl, c.Reason(pc), p.Insts[pc].String())
		}
	}
	return sb.String()
}

// DumpStructure renders the machine-level functions, basic blocks and
// natural loops the classifier sees — a debugging aid for classification
// questions (exposed through elag-cc -structure).
func DumpStructure(p *isa.Program) string {
	var sb strings.Builder
	for _, f := range splitFunctions(p) {
		fmt.Fprintf(&sb, "func %s [%d,%d) blocks=%d\n", f.name, f.start, f.end, len(f.blocks))
		for _, b := range f.blocks {
			var succs []int
			for _, s := range b.succs {
				succs = append(succs, s.start)
			}
			fmt.Fprintf(&sb, "  B%-3d [%4d,%4d) -> %v\n", b.id, b.start, b.end, succs)
		}
		for _, l := range findMLoops(f) {
			var blocks []int
			for _, b := range l.Blocks {
				blocks = append(blocks, b.start)
			}
			sort.Ints(blocks)
			fmt.Fprintf(&sb, "  loop depth=%d header=%d blocks=%v\n", l.Depth, l.Header.start, blocks)
		}
	}
	return sb.String()
}
