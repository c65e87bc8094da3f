package passman

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"elag/internal/opt"
)

// OptLevel selects a predefined pipeline.
type OptLevel int

// Optimization levels.
const (
	// ODefault means "no explicit choice" and resolves to O2.
	ODefault OptLevel = iota
	// O0 runs no IR optimization at all: lower and classify only.
	O0
	// O1 runs the propagation/cleanup fixpoint (constprop, cse,
	// copyprop, coalesce, dce) without inlining, loop or memory passes.
	O1
	// O2 is the full paper pipeline: inlining, the complete cleanup
	// fixpoint (adding rle, licm, iv), and symbol materialization. This
	// is the default and reproduces the schedule the paper's Section 4
	// heuristics were tuned against.
	O2
)

// ParseOptLevel maps "0"/"1"/"2" (or "O0".."O2") to a level.
func ParseOptLevel(s string) (OptLevel, error) {
	switch strings.TrimPrefix(strings.ToUpper(s), "O") {
	case "0":
		return O0, nil
	case "1":
		return O1, nil
	case "2", "":
		return O2, nil
	}
	return ODefault, fmt.Errorf("unknown optimization level %q (want 0, 1 or 2)", s)
}

func (l OptLevel) String() string {
	switch l {
	case O0:
		return "O0"
	case O1:
		return "O1"
	}
	return "O2"
}

// levelSpec writes the level's pipeline down as a -passes spec (see
// Parse); ODefault means O2.
func (l OptLevel) levelSpec() string {
	switch l {
	case O0:
		return ""
	case O1:
		// The straight-line subset of O2's fixpoint: no inlining, loop
		// or memory passes.
		return "fixpoint(constprop,cse,copyprop,coalesce,dce)"
	}
	// The full cleanup schedule, in the order the paper's prerequisite-pass
	// list is applied. dce runs twice per iteration: once mid-schedule to
	// shrink the work the loop passes see, once at the end to sweep what
	// they leave.
	return "inline,fixpoint(constprop,cse,copyprop,coalesce,rle,dce,licm,iv,dce),matsym"
}

// ForLevel builds the pipeline for an optimization level by parsing the
// level's spec, so a level build reports the spec that reproduces it.
// classify appends the Section 4 classifier after lowering.
func ForLevel(level OptLevel, classify bool) Pipeline {
	pl, err := Parse(level.levelSpec(), classify)
	if err != nil {
		panic("passman: " + level.String() + " spec does not parse: " + err.Error())
	}
	return pl
}

// Legacy returns the O2 pipeline; it ignores its Options, which has no
// fields. It remains because the benchmark module's compile-suite still
// builds through Legacy(opt.Options{}, true) and changes only with the
// benchmark.
func Legacy(_ opt.Options, classify bool) Pipeline { return ForLevel(O2, classify) }

// Parse builds a pipeline from a -passes= spec string. Grammar:
//
//	spec  := step ("," step)*
//	step  := name | "fixpoint" [":" iters] "(" name ("," name)* ")"
//
// Names resolve against the registry (see Names). Fixpoint members must be
// per-function IR passes. IR steps must precede "lower"; the machine step
// "classify" must follow it. If the spec names no "lower", one is appended
// after the IR steps; if classify is set and the spec names no "classify",
// one is appended too — so a spec can describe just the optimization
// schedule and inherit the rest of the flow.
func Parse(spec string, classify bool) (Pipeline, error) {
	var pl Pipeline
	sawLower := false
	sawClassifier := false

	steps, err := splitSteps(spec)
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		switch {
		case strings.HasPrefix(s, "fixpoint"):
			g, err := parseFixpoint(s)
			if err != nil {
				return nil, err
			}
			if sawLower {
				return nil, fmt.Errorf("passes spec: fixpoint group after lower")
			}
			pl = append(pl, g)
		default:
			p, ok := modulePass(s)
			if !ok {
				return nil, fmt.Errorf("passes spec: unknown pass %q (have: %s)",
					s, strings.Join(Names(), ", "))
			}
			switch p.Kind {
			case KindIR:
				if sawLower {
					return nil, fmt.Errorf("passes spec: IR pass %q after lower", s)
				}
			case KindLower:
				if sawLower {
					return nil, fmt.Errorf("passes spec: duplicate lower pass")
				}
				sawLower = true
			case KindMachine:
				if !sawLower {
					return nil, fmt.Errorf("passes spec: machine pass %q before lower", s)
				}
				sawClassifier = true // classify is the only machine pass
			}
			pl = append(pl, p)
		}
	}
	if !sawLower {
		pl = append(pl, LowerPass())
	}
	if classify && !sawClassifier {
		pl = append(pl, ClassifyPass())
	}
	return pl, nil
}

// splitSteps splits a spec on commas at paren depth zero.
func splitSteps(spec string) ([]string, error) {
	var steps []string
	depth, start := 0, 0
	for i := 0; i < len(spec); i++ {
		switch spec[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("passes spec: unbalanced ')'")
			}
		case ',':
			if depth == 0 {
				steps = append(steps, strings.TrimSpace(spec[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("passes spec: unbalanced '('")
	}
	if s := strings.TrimSpace(spec[start:]); s != "" {
		steps = append(steps, s)
	}
	for _, s := range steps {
		if s == "" {
			return nil, fmt.Errorf("passes spec: empty step")
		}
	}
	return steps, nil
}

// parseFixpoint parses "fixpoint[:iters](a,b,c)".
func parseFixpoint(s string) (*Group, error) {
	rest := strings.TrimPrefix(s, "fixpoint")
	iters := 0
	if strings.HasPrefix(rest, ":") {
		i := strings.IndexByte(rest, '(')
		if i < 0 {
			return nil, fmt.Errorf("passes spec: malformed fixpoint %q", s)
		}
		n, err := strconv.Atoi(rest[1:i])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("passes spec: bad fixpoint iteration bound in %q", s)
		}
		iters = n
		rest = rest[i:]
	}
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return nil, fmt.Errorf("passes spec: malformed fixpoint %q", s)
	}
	g := &Group{Name: "cleanup", MaxIters: iters}
	for _, n := range strings.Split(rest[1:len(rest)-1], ",") {
		n = strings.TrimSpace(n)
		fp, ok := funcPasses[n]
		if !ok {
			return nil, fmt.Errorf("passes spec: %q is not a per-function pass (fixpoint members: %s)",
				n, strings.Join(funcPassNames(), ", "))
		}
		g.Members = append(g.Members, fp)
	}
	if len(g.Members) == 0 {
		return nil, fmt.Errorf("passes spec: empty fixpoint group in %q", s)
	}
	return g, nil
}

// funcPassNames lists the per-function passes (the legal fixpoint
// members), sorted.
func funcPassNames() []string {
	names := make([]string, 0, len(funcPasses))
	for n := range funcPasses {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
