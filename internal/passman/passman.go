// Package passman is the compiler's pass manager: it owns the schedule of
// everything that happens between a lowered IR module and a classified
// machine program. Passes are registered by name, grouped into fixpoint
// clusters, assembled into pipelines from a -passes= spec string (each
// optimization level, -O0/-O1/-O2, is a named spec), and run under a
// manager that verifies the IR between passes (ir.Verify) and collects
// per-pass statistics (instruction counts, rewrite activity, wall time)
// exportable as an elag-passes/v1 JSON document.
//
// The design follows the pass-pipeline shape of LLVM's new pass manager
// scaled down to this compiler: three pass kinds (IR, lowering, machine)
// share one State that carries the compilation from module to classified
// program, so the paper's Section 4 load classification is an ordinary
// machine pass.
package passman

import (
	"fmt"
	"strconv"
	"time"

	"elag/internal/core"
	"elag/internal/ir"
	"elag/internal/isa"
)

// Kind places a pass in the compilation flow.
type Kind uint8

// Pass kinds.
const (
	// KindIR transforms the IR module (State.Module).
	KindIR Kind = iota
	// KindLower turns IR into a machine program (State.Asm/Machine).
	KindLower
	// KindMachine transforms the machine program (State.Machine,
	// State.Classes).
	KindMachine
)

func (k Kind) String() string {
	switch k {
	case KindIR:
		return "ir"
	case KindLower:
		return "lower"
	case KindMachine:
		return "machine"
	}
	return "?"
}

// State is the unit of compilation threaded through a pipeline. IR passes
// read and write Module; the lower pass fills Asm and Machine; machine
// passes rewrite Machine and Classes.
type State struct {
	// Source is the original MC source (informational; empty for
	// assembly-origin programs).
	Source string
	// Module is the IR under optimization (nil once unused, or for
	// machine-only pipelines).
	Module *ir.Module
	// Asm is the generated assembly listing (set by the lower pass).
	Asm string
	// Machine is the assembled machine program (set by the lower pass,
	// or pre-set for machine-only pipelines).
	Machine *isa.Program
	// Classes is the load classification (set by the classify pass).
	Classes *core.Classification

	// ClassifyOpts parameterizes the classify pass.
	ClassifyOpts core.Options
}

// NumInsts counts the instructions currently in flight: machine
// instructions once lowered, IR instructions before.
func (st *State) NumInsts() int {
	if st.Machine != nil {
		return len(st.Machine.Insts)
	}
	if st.Module == nil {
		return 0
	}
	n := 0
	for _, f := range st.Module.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

// Pass is one module-level transformation.
type Pass struct {
	// Name identifies the pass in specs, stats and dumps.
	Name string
	// Desc is a one-line description for -help-passes style listings.
	Desc string
	// Kind places the pass in the compilation flow.
	Kind Kind
	// Run transforms the state, reporting whether anything changed.
	Run func(*State) (changed bool, err error)
}

// FuncPass is a per-function IR transformation, the granularity at which
// fixpoint groups iterate.
type FuncPass struct {
	Name string
	Desc string
	Run  func(*ir.Func) (changed bool, err error)
}

// Group is a fixpoint cluster: for each function, its members run in order,
// repeatedly, until a full iteration changes nothing or MaxIters is
// reached. Functions converge independently (a function that is done stops
// iterating even while another continues), matching the cost model of a
// per-function optimizer.
type Group struct {
	Name     string
	MaxIters int // <=0 means 8
	Members  []FuncPass
}

// Step is one pipeline element: a *Pass or a *Group.
type Step interface {
	stepName() string
}

func (p *Pass) stepName() string  { return p.Name }
func (g *Group) stepName() string { return g.Name }

// Pipeline is an ordered list of steps.
type Pipeline []Step

// Names renders the pipeline as the -passes spec that builds it again,
// fixpoint iteration bounds included.
func (pl Pipeline) Names() string {
	s := ""
	for i, st := range pl {
		if i > 0 {
			s += ","
		}
		if g, ok := st.(*Group); ok {
			s += "fixpoint"
			if g.MaxIters > 0 {
				s += ":" + strconv.Itoa(g.MaxIters)
			}
			s += "("
			for j, m := range g.Members {
				if j > 0 {
					s += ","
				}
				s += m.Name
			}
			s += ")"
		} else {
			s += st.stepName()
		}
	}
	return s
}

// Dump is one IR snapshot requested with Manager.DumpAfter.
type Dump struct {
	// Pass is the pass (or group member) the snapshot was taken after.
	Pass string
	// Text is the rendered IR of the whole module.
	Text string
}

// Manager runs pipelines.
type Manager struct {
	// Verify, when set, runs ir.VerifyFunc/ir.Verify after every pass
	// (and every group-member application) and aborts the pipeline on the
	// first violation — a broken pass is caught at the pass that broke
	// the module, not at codegen or in the simulator.
	Verify bool
	// Stats, when non-nil, accumulates per-pass counters.
	Stats *Stats
	// DumpAfter, when non-empty, snapshots the IR after every run of the
	// named pass (or group member) into Dumps.
	DumpAfter string
	// Dumps receives the requested IR snapshots.
	Dumps []Dump
}

// Run executes the pipeline over st. The first pass error or verifier
// violation aborts the run.
func (m *Manager) Run(pl Pipeline, st *State) error {
	if st.Module != nil {
		// Normalize: derive CFG edges and prune unreachable blocks, so
		// passes and the verifier see a consistent graph.
		for _, f := range st.Module.Funcs {
			f.ComputeCFG()
		}
		if err := m.verifyModule(st, "input"); err != nil {
			return err
		}
	}
	for _, step := range pl {
		switch s := step.(type) {
		case *Pass:
			if err := m.runPass(s, st); err != nil {
				return err
			}
		case *Group:
			if err := m.runGroup(s, st); err != nil {
				return err
			}
		default:
			return fmt.Errorf("passman: unknown step type %T", step)
		}
	}
	return nil
}

func (m *Manager) runPass(p *Pass, st *State) error {
	before := st.NumInsts()
	t0 := time.Now()
	changed, err := p.Run(st)
	wall := time.Since(t0)
	m.record(p.Name, p.Kind, changed, before, st.NumInsts(), wall)
	if err != nil {
		return fmt.Errorf("pass %s: %w", p.Name, err)
	}
	if p.Kind != KindMachine && st.Module != nil {
		if err := m.verifyModule(st, p.Name); err != nil {
			return err
		}
	}
	m.dump(p.Name, st)
	return nil
}

func (m *Manager) runGroup(g *Group, st *State) error {
	if st.Module == nil {
		return fmt.Errorf("passman: fixpoint group %s needs an IR module", g.Name)
	}
	max := g.MaxIters
	if max <= 0 {
		max = 8
	}
	for _, f := range st.Module.Funcs {
		f.ComputeCFG()
		for iter := 0; iter < max; iter++ {
			changedAny := false
			for i := range g.Members {
				mem := &g.Members[i]
				before := countFunc(f)
				t0 := time.Now()
				changed, err := mem.Run(f)
				wall := time.Since(t0)
				m.record(mem.Name, KindIR, changed, before, countFunc(f), wall)
				if err != nil {
					return fmt.Errorf("pass %s (in %s, func %s): %w", mem.Name, g.Name, f.Name, err)
				}
				if m.Verify {
					if err := ir.VerifyFunc(f); err != nil {
						return fmt.Errorf("after pass %s (in %s): %w", mem.Name, g.Name, err)
					}
				}
				m.dump(mem.Name, st)
				changedAny = changedAny || changed
			}
			if !changedAny {
				break
			}
		}
	}
	return nil
}

func countFunc(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

func (m *Manager) verifyModule(st *State, after string) error {
	if !m.Verify || st.Module == nil {
		return nil
	}
	if err := ir.Verify(st.Module); err != nil {
		return fmt.Errorf("after pass %s: %w", after, err)
	}
	return nil
}

func (m *Manager) dump(pass string, st *State) {
	if m.DumpAfter == "" || m.DumpAfter != pass || st.Module == nil {
		return
	}
	text := ""
	for _, f := range st.Module.Funcs {
		text += f.String()
	}
	m.Dumps = append(m.Dumps, Dump{Pass: pass, Text: text})
}

func (m *Manager) record(name string, kind Kind, changed bool, before, after int, wall time.Duration) {
	if m.Stats == nil {
		return
	}
	m.Stats.record(name, kind, changed, before, after, wall)
}
