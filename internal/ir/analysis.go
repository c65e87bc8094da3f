package ir

import "slices"

// This file implements the CFG analyses used by the optimizer and the load
// classifier: immediate dominators (iterative Cooper-Harvey-Kennedy) and
// natural loops from back edges, generic over the node type so that the
// classifier runs the same code on machine blocks; and virtual-register
// liveness.

// Idoms returns the immediate dominator of every node reachable from entry,
// walking the graph through succs and preds. The entry maps to itself;
// unreachable nodes are absent.
func Idoms[N comparable](entry N, succs, preds func(N) []N) map[N]N {
	// Reverse postorder.
	var rpo []N
	seen := make(map[N]bool)
	var dfs func(n N)
	dfs = func(n N) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, s := range succs(n) {
			dfs(s)
		}
		rpo = append(rpo, n)
	}
	dfs(entry)
	slices.Reverse(rpo)
	order := make(map[N]int, len(rpo))
	for i, n := range rpo {
		order[n] = i
	}

	idom := make(map[N]N, len(rpo))
	idom[entry] = entry
	intersect := func(a, b N) N {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, n := range rpo[1:] { // rpo[0] is the entry
			var newIdom N
			found := false
			for _, p := range preds(n) {
				if _, ok := idom[p]; !ok {
					continue
				}
				if !found {
					newIdom, found = p, true
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if old, ok := idom[n]; found && (!ok || old != newIdom) {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether a dominates b (reflexively) under idom.
func dominates[N comparable](idom map[N]N, a, b N) bool {
	for a != b {
		i, ok := idom[b]
		if !ok || i == b {
			return false
		}
		b = i
	}
	return true
}

// LoopOf is a natural loop over graph nodes of type N.
type LoopOf[N comparable] struct {
	// Header is the loop's entry node (target of its back edges).
	Header N
	// Blocks is the loop body: the header, then the other nodes in the
	// order the backward walks from the latches reach them.
	Blocks []N
	// Depth is the number of loops whose body holds the header, this
	// one included (outermost loops have depth 1). Over reachable nodes
	// natural loops are nested or disjoint, so this is the nesting depth.
	Depth int

	blockSet map[N]bool
}

// Contains reports whether n belongs to the loop body.
func (l *LoopOf[N]) Contains(n N) bool { return l.blockSet[n] }

// Loop is a natural loop of an IR function.
type Loop = LoopOf[*Block]

// NaturalLoops detects the natural loops of the graph whose nodes are
// listed in nodes, nodes[0] being the entry, and returns them sorted
// innermost-first (deepest first, stably), the order in which the paper's
// cyclic heuristics analyze them. Back edges are found in node order, then
// in successor order; a latch the entry does not reach is skipped, and
// back edges into one header make one loop.
func NaturalLoops[N comparable](nodes []N, succs, preds func(N) []N) []*LoopOf[N] {
	if len(nodes) == 0 {
		return nil
	}
	idom := Idoms(nodes[0], succs, preds)
	var loops []*LoopOf[N]
	byHeader := make(map[N]*LoopOf[N])
	for _, n := range nodes {
		if _, ok := idom[n]; !ok {
			continue // the entry does not reach this latch
		}
		for _, header := range succs(n) {
			if !dominates(idom, header, n) {
				continue // not a back edge
			}
			l := byHeader[header]
			if l == nil {
				l = &LoopOf[N]{Header: header, Blocks: []N{header}, blockSet: map[N]bool{header: true}}
				byHeader[header] = l
				loops = append(loops, l)
			}
			// Collect the body: predecessors reachable backwards
			// from the latch without passing the header.
			stack := []N{n}
			for len(stack) > 0 {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.blockSet[m] {
					continue
				}
				l.blockSet[m] = true
				l.Blocks = append(l.Blocks, m)
				stack = append(stack, preds(m)...)
			}
		}
	}
	for _, a := range loops {
		for _, b := range loops {
			if b.blockSet[a.Header] {
				a.Depth++
			}
		}
	}
	slices.SortStableFunc(loops, func(a, b *LoopOf[N]) int { return b.Depth - a.Depth })
	return loops
}

// FindLoops detects the natural loops of f, innermost first (see
// NaturalLoops). ComputeCFG must have been called first.
func FindLoops(f *Func) []*Loop {
	return NaturalLoops(f.Blocks, blockSuccs, blockPreds)
}

func blockSuccs(b *Block) []*Block { return b.Succs }
func blockPreds(b *Block) []*Block { return b.Preds }

// Liveness holds per-block live-in/live-out virtual register sets.
type Liveness struct {
	In, Out map[*Block]map[VReg]bool
}

// ComputeLiveness runs the standard backward iterative dataflow analysis.
func ComputeLiveness(f *Func) *Liveness {
	lv := &Liveness{
		In:  make(map[*Block]map[VReg]bool, len(f.Blocks)),
		Out: make(map[*Block]map[VReg]bool, len(f.Blocks)),
	}
	use := make(map[*Block]map[VReg]bool, len(f.Blocks))
	def := make(map[*Block]map[VReg]bool, len(f.Blocks))
	var scratch []VReg
	for _, b := range f.Blocks {
		u, d := map[VReg]bool{}, map[VReg]bool{}
		for _, in := range b.Insts {
			scratch = in.Uses(scratch[:0])
			for _, v := range scratch {
				if !d[v] {
					u[v] = true
				}
			}
			if in.Dst != NoVReg {
				d[in.Dst] = true
			}
		}
		use[b], def[b] = u, d
		lv.In[b] = map[VReg]bool{}
		lv.Out[b] = map[VReg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b]
			for _, s := range b.Succs {
				for v := range lv.In[s] {
					if !out[v] {
						out[v] = true
						changed = true
					}
				}
			}
			in := lv.In[b]
			for v := range use[b] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
			for v := range out {
				if !def[b][v] && !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return lv
}
