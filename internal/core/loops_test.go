package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"elag"
	"elag/internal/core"
	"elag/internal/ir"
	"elag/internal/workload"
)

// TestLoopAnalysisMatchesDefinitions checks the shared dominator and
// natural-loop analyses against their definitions, computed by brute force,
// on random graphs (with self-loops, repeated edges and unreachable nodes)
// and on the machine CFG of every function of every workload:
//
//   - a dominates b exactly when b is unreachable from the entry once a is
//     removed; unreachable nodes have no immediate dominator;
//   - an edge t→h whose source the entry reaches is a back edge exactly
//     when h dominates t;
//   - a loop's body is its header plus every node that reaches one of its
//     back-edge sources without passing the header;
//   - a loop's depth is the number of loops whose body holds its header,
//     and loops come deepest first, ties in the order their headers were
//     first found (nodes in order, then successors in order).
func TestLoopAnalysisMatchesDefinitions(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		succ, pred := make([][]int, n), make([][]int, n)
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
			for range rng.Intn(4) {
				j := rng.Intn(n)
				succ[i] = append(succ[i], j)
				pred[j] = append(pred[j], i)
			}
		}
		succs := func(i int) []int { return succ[i] }
		preds := func(i int) []int { return pred[i] }
		checkLoopAnalysis(t, fmt.Sprintf("random graph %d", seed), nodes, succs, preds,
			ir.NaturalLoops(nodes, succs, preds))
	}
	for _, w := range workload.All() {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range core.MachineLoops(p.Machine) {
			checkLoopAnalysis(t, w.Name+" "+f.Name, f.Blocks, core.Succs, core.Preds, f.Loops)
		}
	}
}

// checkLoopAnalysis compares ir.Idoms(nodes[0], ...) and loops, the result
// of ir.NaturalLoops over nodes, with the definitions above.
func checkLoopAnalysis[N comparable](t *testing.T, name string, nodes []N, succs, preds func(N) []N, loops []*ir.LoopOf[N]) {
	t.Helper()
	entry := nodes[0]
	// reach returns the nodes reachable from the entry without passing
	// removed (the entry itself is removable).
	reach := func(removed N, remove bool) map[N]bool {
		seen := map[N]bool{}
		var walk func(n N)
		walk = func(n N) {
			if seen[n] || remove && n == removed {
				return
			}
			seen[n] = true
			for _, s := range succs(n) {
				walk(s)
			}
		}
		walk(entry)
		return seen
	}
	reachable := reach(entry, false)
	without := map[N]map[N]bool{}
	for _, a := range nodes {
		without[a] = reach(a, true)
	}
	dom := func(a, b N) bool { return reachable[b] && !without[a][b] }

	idom := ir.Idoms(entry, succs, preds)
	for _, b := range nodes {
		got, ok := idom[b]
		switch {
		case !reachable[b]:
			if ok {
				t.Fatalf("%s: unreachable node %v has idom %v", name, b, got)
			}
		case b == entry:
			if got != entry {
				t.Fatalf("%s: entry's idom is %v", name, got)
			}
		default:
			// The immediate dominator is the strict dominator that
			// every other strict dominator dominates.
			if !ok || got == b || !dom(got, b) {
				t.Fatalf("%s: idom(%v) = %v is not a strict dominator", name, b, got)
			}
			for _, a := range nodes {
				if a != b && dom(a, b) && !dom(a, got) {
					t.Fatalf("%s: %v strictly dominates %v but not its idom %v", name, a, b, got)
				}
			}
		}
	}

	type loop struct {
		header N
		body   map[N]bool
		depth  int
	}
	var want []*loop
	byHeader := map[N]*loop{}
	for _, latch := range nodes {
		for _, h := range succs(latch) {
			if !reachable[latch] || !dom(h, latch) {
				continue
			}
			l := byHeader[h]
			if l == nil {
				l = &loop{header: h, body: map[N]bool{h: true}}
				byHeader[h] = l
				want = append(want, l)
			}
			// Every node from which the latch is reachable without
			// passing the header.
			for _, m := range nodes {
				if m == h || l.body[m] {
					continue
				}
				seen := map[N]bool{h: true}
				var walk func(n N) bool
				walk = func(n N) bool {
					if seen[n] {
						return false
					}
					if n == latch {
						return true
					}
					seen[n] = true
					for _, s := range succs(n) {
						if walk(s) {
							return true
						}
					}
					return false
				}
				if walk(m) {
					l.body[m] = true
				}
			}
		}
	}
	for _, a := range want {
		for _, b := range want {
			if b.body[a.header] {
				a.depth++
			}
		}
	}
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && want[j].depth > want[j-1].depth; j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}

	if len(loops) != len(want) {
		t.Fatalf("%s: %d loops, want %d", name, len(loops), len(want))
	}
	for i, l := range loops {
		w := want[i]
		if l.Header != w.header || l.Depth != w.depth {
			t.Fatalf("%s: loop %d has header %v depth %d, want header %v depth %d",
				name, i, l.Header, l.Depth, w.header, w.depth)
		}
		if len(l.Blocks) != len(w.body) || len(l.Blocks) == 0 || l.Blocks[0] != l.Header {
			t.Fatalf("%s: loop %d (header %v) has %d blocks, want %d, header first",
				name, i, l.Header, len(l.Blocks), len(w.body))
		}
		listed := map[N]bool{}
		for _, b := range l.Blocks {
			if !w.body[b] || listed[b] {
				t.Fatalf("%s: loop %d (header %v) lists %v twice or outside its body", name, i, l.Header, b)
			}
			listed[b] = true
		}
		for _, b := range nodes {
			if l.Contains(b) != w.body[b] {
				t.Fatalf("%s: loop %d (header %v): Contains(%v) = %v", name, i, l.Header, b, l.Contains(b))
			}
		}
	}
}
