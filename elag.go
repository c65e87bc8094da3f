// Package elag is a library reproduction of "Compiler-Directed Early
// Load-Address Generation" (Cheng, Connors, Hwu — MICRO-31, 1998).
//
// The paper hides load latency by generating load addresses early in the
// pipeline through two compiler-selected mechanisms: a PC-indexed
// stride-prediction table (opcode ld_p), and early address calculation
// through a single special addressing register R_addr (opcode ld_e), with
// ld_n marking loads that should use neither. This package wires the whole
// toolchain together:
//
//	MC source (a small C subset)
//	  │  mcc: lex/parse/lower
//	  ▼
//	IR  ── opt: inlining, const/copy propagation, redundant-load
//	  │        elimination, LICM, induction-variable strength reduction
//	  ▼
//	assembly ── codegen: linear-scan allocation, instruction selection
//	  │
//	  ▼
//	machine program ── core: the paper's load-classification heuristics
//	  │                      (+ optional address-profile reclassification)
//	  ▼
//	emu (functional emulation) + pipeline (6-stage in-order timing model
//	     with both early-address-generation paths)
//
// The simplest entry points are Build (compile and classify), Program.Run
// (architectural execution) and Program.Simulate (timing simulation):
//
//	p, err := elag.Build(src, elag.BuildOptions{})
//	base, _, _ := p.Simulate(elag.BaseConfig(), 0)
//	fast, _, _ := p.Simulate(elag.CompilerDirectedConfig(), 0)
//	speedup := fast.SpeedupOver(base)
package elag

import (
	"context"
	"fmt"
	"io"
	"strings"

	"elag/internal/asm"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/ir"
	"elag/internal/isa"
	"elag/internal/mcc"
	"elag/internal/mech"
	"elag/internal/obs"
	"elag/internal/passman"
	"elag/internal/pipeline"
	"elag/internal/profile"
)

// Re-exported configuration and result types. The underlying packages stay
// internal; these aliases are the supported public surface.
type (
	// SimConfig parameterizes the timing simulator (see BaseConfig and
	// CompilerDirectedConfig for the paper's reference points).
	SimConfig = pipeline.Config
	// Metrics is a timing-simulation result.
	Metrics = pipeline.Metrics
	// RunResult is a functional-emulation result.
	RunResult = emu.Result
	// ClassifyOptions tunes the load classifier.
	ClassifyOptions = core.Options
	// Classification is the per-load NT/PD/EC assignment.
	Classification = core.Classification
	// LoadProfile holds per-load address-prediction rates.
	LoadProfile = profile.LoadProfile
	// LoadClass is a per-load classification (NT, PD or EC).
	LoadClass = core.Class
	// FlavorOverlay is an immutable per-PC load-flavour assignment that a
	// simulation can apply without mutating the program (see
	// Classification.Overlay); nil means the program's own flavours.
	FlavorOverlay = isa.FlavorOverlay
	// Selection steers loads to early-address-generation hardware.
	Selection = pipeline.Selection
	// MechSpec identifies a load-acceleration mechanism by kind plus
	// geometry; its canonical string form is
	// "kind[:entries[xassoc]]" (see ParseMechSpec and
	// SimConfig.Mechanisms).
	MechSpec = mech.Spec
	// MechStats counts an assist mechanism's behaviour
	// (Metrics.MechStats).
	MechStats = mech.Stats
	// MechDesc is one row of the mechanism kind table (kind +
	// description).
	MechDesc = mech.KindDesc
	// Fault is a typed architectural fault. Every error the emulator or
	// the trace replayer produces for a misbehaving *program* (as
	// opposed to a misconfigured simulator) is a *Fault; match kinds
	// with errors.Is against &Fault{Kind: ...} or inspect via errors.As.
	Fault = isa.Fault
	// FaultKind discriminates architectural fault classes.
	FaultKind = isa.FaultKind

	// OptLevel selects a predefined compiler pipeline (O0, O1, O2).
	OptLevel = passman.OptLevel
	// PassStats accumulates per-pass counters across a Build (attach via
	// BuildOptions.Stats; export with passman.NewStatsDoc).
	PassStats = passman.Stats
	// PassDump is one IR snapshot requested with BuildOptions.DumpIR.
	PassDump = passman.Dump
	// SourceError is a front-end diagnostic carrying a line:col source
	// position; match with errors.As to recover the location from a
	// failed Build.
	SourceError = mcc.Error

	// Observability surface (see BatchSpec.Sink). Event is one
	// cycle-level occurrence in the timing model; EventSink receives the
	// stream; FailMask is the Section 3.2 failure-term bitmask carried by
	// speculation-failure events.
	Event = pipeline.Event
	// EventKind discriminates cycle-level events.
	EventKind = pipeline.EventKind
	// EventSink receives the cycle-level event stream of a simulation.
	EventSink = pipeline.EventSink
	// FailMask is the forwarding-failure-term bitmask.
	FailMask = pipeline.FailMask
	// StallCause labels why an instruction could not issue on a cycle.
	StallCause = pipeline.StallCause
	// PathStats counts the behaviour of one speculation path.
	PathStats = pipeline.PathStats
	// LoadPCStats is one static load's row in the per-PC attribution
	// table (Metrics.PerPC).
	LoadPCStats = pipeline.LoadPCStats
	// TraceRecorder is an EventSink retaining a bounded window of the
	// event stream, suitable for WriteChromeTrace.
	TraceRecorder = obs.Recorder
	// MetricsDoc is the schema-versioned machine-readable form of one
	// run's metrics (see NewMetricsDoc / WriteMetricsJSON).
	MetricsDoc = obs.MetricsDoc
	// BatchSpec is one configuration cell of a batched replay (see
	// SimulateBatchContext): a simulator configuration plus an optional
	// flavour overlay, event sink and per-PC attribution switch.
	BatchSpec = pipeline.BatchSpec
)

// DefaultChunkSize is the streaming-trace chunk size used when a chunked
// entry point is passed chunkSize <= 0. A replay's trace ring holds eight
// such chunks.
const DefaultChunkSize = emu.DefaultChunkSize

// Selection policies (see pipeline.Selection).
const (
	SelNone       = pipeline.SelNone
	SelCompiler   = pipeline.SelCompiler
	SelAllPredict = pipeline.SelAllPredict
	SelAllEarly   = pipeline.SelAllEarly
	SelHWDual     = pipeline.SelHWDual
)

// Load classes, named as in the paper's tables.
const (
	// NT — "neither": the load speculates on neither mechanism (ld_n).
	NT = core.NT
	// PD — "predict": the load uses the address prediction table (ld_p).
	PD = core.PD
	// EC — "early calculate": the load uses R_addr (ld_e).
	EC = core.EC
)

// Architectural fault kinds (see Fault).
const (
	// FaultBadPC — control transfer outside the program text.
	FaultBadPC = isa.FaultBadPC
	// FaultMisaligned — memory access not naturally aligned.
	FaultMisaligned = isa.FaultMisaligned
	// FaultOutOfBounds — memory access outside the address space.
	FaultOutOfBounds = isa.FaultOutOfBounds
	// FaultIllegalOp — undefined opcode.
	FaultIllegalOp = isa.FaultIllegalOp
	// FaultDivZero — integer division or remainder by zero.
	FaultDivZero = isa.FaultDivZero
	// FaultFuel — the dynamic instruction budget ran out.
	FaultFuel = isa.FaultFuel
)

// ErrFuel matches (via errors.Is) the fault returned when a run exhausts
// its fuel before halting.
var ErrFuel = emu.ErrFuel

// BaseConfig returns the paper's base architecture (Section 5.1) without
// early address generation: 6-wide in-order issue, 4 integer ALUs, 2 memory
// ports, 64K I/D caches, 1K-entry BTB.
func BaseConfig() SimConfig { return SimConfig{} }

// CompilerDirectedConfig returns the paper's headline configuration, the
// "compiler" machine: a 256-entry direct-mapped address prediction table
// plus one compiler-directed addressing register.
func CompilerDirectedConfig() SimConfig {
	cfg, _ := NamedConfig("compiler", 0, 0)
	return cfg
}

// ConfigNames documents the configuration names NamedConfig accepts: the
// paper's machines (pipeline.Machines) in the order the tools print them.
var ConfigNames = func() string {
	names := make([]string, len(pipeline.Machines))
	for i, m := range pipeline.Machines {
		names[i] = m.Name
	}
	return strings.Join(names, "|")
}()

// NamedConfig maps a machine name (see ConfigNames) to a simulator
// configuration — the shared vocabulary of the CLI tools' -config flag and
// the elag-serve job API. table sizes the "addrpred" prediction table and
// regs the "earlycalc" register cache; 0 picks the machine's default (a
// 256-entry table; 1 register for compiler, 16 for the hardware-only
// machines), and a size the machine never drives is ignored.
func NamedConfig(name string, table, regs int) (SimConfig, error) {
	for _, m := range pipeline.Machines {
		if m.Name == name {
			if table == 0 {
				table = m.Table
			}
			if regs == 0 {
				regs = m.Regs
			}
			return m.Select.Config(table, regs), nil
		}
	}
	return SimConfig{}, fmt.Errorf("unknown config %q (want %s)", name, ConfigNames)
}

// ParseMechSpec parses the canonical "kind[:entries[xassoc]]" mechanism
// spec form (e.g. "stride:256", "pcax:256x4"). Syntax only; the kind and
// geometry are checked against the kind table when a simulation is
// configured (SimConfig.Validate) or built.
func ParseMechSpec(s string) (MechSpec, error) { return mech.ParseSpec(s) }

// Mechanisms lists the mechanism kinds, sorted, with their
// one-line descriptions — the -help-mechanisms vocabulary of the CLI
// tools.
func Mechanisms() []MechDesc { return mech.Describe() }

// Optimization levels (see BuildOptions.Level).
const (
	// O0 disables IR optimization entirely: lower and classify only.
	O0 = passman.O0
	// O1 runs the propagation/cleanup fixpoint without inlining, loop or
	// memory passes.
	O1 = passman.O1
	// O2 is the full paper pipeline and the default.
	O2 = passman.O2
)

// ParseOptLevel maps "0"/"1"/"2" (or "O0".."O2") to an OptLevel.
func ParseOptLevel(s string) (OptLevel, error) { return passman.ParseOptLevel(s) }

// BuildOptions controls compilation.
type BuildOptions struct {
	// Classify tunes the load-classification heuristics.
	Classify ClassifyOptions
	// DisableClassify leaves every load as ld_n (the hardware-only
	// configurations ignore flavours anyway).
	DisableClassify bool

	// Level selects a predefined pipeline (O0/O1/O2), each a named
	// Passes spec; the zero value means O2.
	Level OptLevel
	// Passes, when non-empty, is an explicit pipeline spec (see
	// passman.Parse), overriding Level. Example:
	// "inline,fixpoint(constprop,dce),matsym".
	Passes string
	// Stats, when non-nil, accumulates per-pass statistics for the build
	// (instructions before/after, rewrite activity, wall time).
	Stats *PassStats
	// DumpIR, when non-empty, snapshots the IR after every run of the
	// named pass; the snapshots are returned on Program.PassDumps.
	DumpIR string
}

// pipelineFor resolves the BuildOptions precedence: the Passes spec, else
// the Level's spec.
func pipelineFor(o BuildOptions) (passman.Pipeline, error) {
	classify := !o.DisableClassify
	if o.Passes != "" {
		return passman.Parse(o.Passes, classify)
	}
	return passman.ForLevel(o.Level, classify), nil
}

// Program is a compiled, classified, executable program.
type Program struct {
	// Source is the MC source it was built from (empty for assembly
	// inputs).
	Source string
	// Asm is the generated assembly listing.
	Asm string
	// Machine is the assembled machine program.
	Machine *isa.Program
	// Module is the optimized IR (nil for assembly inputs).
	Module *ir.Module
	// Classes is the load classification applied to Machine (nil when
	// classification was disabled).
	Classes *Classification
	// PassDumps holds the IR snapshots requested with
	// BuildOptions.DumpIR, in pass-run order.
	PassDumps []PassDump
	// Pipeline is the -passes spec of the pipeline that built the program;
	// BuildOptions.Passes set to it builds the program again (empty for
	// assembly inputs).
	Pipeline string
}

// Build compiles MC source through the full pipeline: front end, then a
// pass-manager-scheduled flow of classical optimizations, code generation,
// assembly, and load classification. The IR is verified between passes.
func Build(src string, o BuildOptions) (*Program, error) {
	mod, err := mcc.Compile(src)
	if err != nil {
		return nil, err
	}
	pl, err := pipelineFor(o)
	if err != nil {
		return nil, err
	}
	st := &passman.State{
		Source:       src,
		Module:       mod,
		ClassifyOpts: o.Classify,
	}
	mgr := passman.Manager{
		Verify:    true,
		Stats:     o.Stats,
		DumpAfter: o.DumpIR,
	}
	if err := mgr.Run(pl, st); err != nil {
		return nil, err
	}
	if st.Machine == nil {
		return nil, fmt.Errorf("pipeline %q produced no machine program (missing lower pass)", pl.Names())
	}
	return &Program{
		Source:    src,
		Asm:       st.Asm,
		Machine:   st.Machine,
		Module:    st.Module,
		Classes:   st.Classes,
		PassDumps: mgr.Dumps,
		Pipeline:  pl.Names(),
	}, nil
}

// BuildAsm assembles a hand-written assembly program and (optionally)
// classifies its loads.
func BuildAsm(src string, classify bool, o ClassifyOptions) (*Program, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	p := &Program{Asm: src, Machine: prog}
	if classify {
		p.Classes = core.ClassifyAndApply(prog, o)
	}
	return p, nil
}

// Object serializes the program (with its current load flavours) to the
// ELAG object format, loadable with LoadObject.
func (p *Program) Object() ([]byte, error) {
	return isa.EncodeProgram(p.Machine)
}

// LoadObject loads a program previously serialized with Program.Object.
// The stored classification is embedded in the load flavours; Classes is
// reconstructed from them.
func LoadObject(buf []byte) (*Program, error) {
	mp, err := isa.DecodeProgram(buf)
	if err != nil {
		return nil, err
	}
	return &Program{Machine: mp, Classes: core.FromFlavors(mp)}, nil
}

// Run executes the program architecturally (no timing) and returns its
// observable results. fuel bounds the dynamic instruction count (<=0 for
// the default of 200M).
func (p *Program) Run(fuel int64) (RunResult, error) {
	return emu.Run(p.Machine, fuel)
}

// Simulate runs the timing model under cfg and returns its metrics along
// with the architectural results. It is a batch of one through
// SimulateBatchContext: the trace is streamed in DefaultChunkSize chunks,
// never materialized. fuel bounds emulated instructions (<= 0 for the
// default of 200M); a fuel-truncated run is still timed.
func (p *Program) Simulate(cfg SimConfig, fuel int64) (*Metrics, RunResult, error) {
	ms, res, err := p.SimulateBatchContext(context.Background(), []BatchSpec{{Config: cfg}}, fuel, 0)
	if err != nil {
		return nil, res, err
	}
	return ms[0], res, nil
}

// SimulateBatchContext emulates the program once and replays its trace
// under every spec in a single streamed pass (see pipeline.Replay): one
// architectural execution amortized over N configurations, replayed on up
// to GOMAXPROCS lanes while the emulator runs up to a ring of chunks
// ahead. Trace memory is O(chunkSize) (<= 0 for DefaultChunkSize)
// regardless of fuel: at most 32,768 entries or two chunks, whichever is
// more. Metrics are returned in spec order and are bit-identical to N
// independent Simulate calls at any chunk size and GOMAXPROCS; a spec's
// Sink and PerPC observe its simulation without perturbing it, and the
// Sink is called from its lane's goroutine.
// ctx is checked before each chunk, by the emulator and by every lane, so
// a batch over a pathological program aborts within one chunk of work per
// lane of ctx being cancelled.
func (p *Program) SimulateBatchContext(ctx context.Context, specs []BatchSpec, fuel int64, chunkSize int) ([]*Metrics, RunResult, error) {
	return pipeline.Replay(ctx, p.Machine, specs, pipeline.Options{Fuel: fuel, Chunk: chunkSize})
}

// WriteChromeTrace writes recorded events as Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing), using the program's
// instruction mnemonics for the pipeline lanes.
func (p *Program) WriteChromeTrace(w io.Writer, events []Event) error {
	return obs.WriteChromeTrace(w, p.Machine, events)
}

// NewMetricsDoc wraps a run's metrics in the schema-versioned document
// written by WriteMetricsJSON; program and config label the run.
func NewMetricsDoc(program, config string, m *Metrics) *MetricsDoc {
	return obs.NewMetricsDoc(program, config, m)
}

// WriteMetricsJSON writes a metrics document as indented JSON.
func WriteMetricsJSON(w io.Writer, doc *MetricsDoc) error {
	return obs.WriteMetricsJSON(w, doc)
}

// WritePerPCCSV writes the per-PC load attribution table as CSV.
func WritePerPCCSV(w io.Writer, rows []LoadPCStats) error {
	return obs.WritePerPCCSV(w, rows)
}

// WriteWorstLoads writes an aligned report of the n static loads with the
// highest total effective latency (requires BatchSpec.PerPC).
func WriteWorstLoads(w io.Writer, m *Metrics, n int) error {
	return obs.WriteWorstLoads(w, m, n)
}

// Profile runs the address profiler (Section 4.3): every static load gets
// its own unlimited-table stride machine, and the profile records per-load
// prediction rates.
func (p *Program) Profile(fuel int64) (*LoadProfile, error) {
	lp, _, err := profile.Collect(p.Machine, fuel)
	return lp, err
}

// ProfileContext is Profile with cooperative cancellation, checked every
// DefaultChunkSize instructions of the profiling emulation.
func (p *Program) ProfileContext(ctx context.Context, fuel int64) (*LoadProfile, error) {
	lp, _, err := profile.CollectContext(ctx, p.Machine, fuel)
	return lp, err
}

// ApplyProfile performs the paper's profile-guided reclassification: NT
// loads whose profiled prediction rate exceeds threshold (0 means the
// paper's 60%) become PD. The program's load flavours are rewritten; a
// program built without classification is classified first.
func (p *Program) ApplyProfile(lp *LoadProfile, threshold float64) *Classification {
	c := p.Classes
	if c == nil {
		c = core.Classify(p.Machine, core.Options{})
	}
	p.Classes = core.Reclassify(c, lp.Rates(), threshold)
	p.Classes.Apply(p.Machine)
	return p.Classes
}

// Speedup is a convenience helper: it simulates prog under both base and
// cfg in one batch and returns base-cycles / cfg-cycles.
func Speedup(p *Program, cfg SimConfig, fuel int64) (float64, error) {
	ms, _, err := p.SimulateBatchContext(context.Background(),
		[]BatchSpec{{Config: BaseConfig()}, {Config: cfg}}, fuel, 0)
	if err != nil {
		return 0, err
	}
	return ms[1].SpeedupOver(ms[0]), nil
}

// StageView simulates the first n dynamic instructions under cfg and
// renders their pipeline stage occupancy as a text timeline (F fetch,
// D decode/stall, X execute, M memory); forwarded loads are marked with
// their effective latency (0 or 1). Only the drawn instructions are
// emulated: fuel caps them when it is smaller than n, and fuel <= 0
// means n. The timeline is drawn from the run's EvRetire events.
func (p *Program) StageView(cfg SimConfig, fuel int64, n int) (string, error) {
	if n <= 0 {
		return "", cfg.Validate()
	}
	if fuel <= 0 || fuel > int64(n) {
		fuel = int64(n)
	}
	var retired pipeline.StageSink
	if _, _, err := p.SimulateBatchContext(context.Background(),
		[]BatchSpec{{Config: cfg, Sink: &retired}}, fuel, 0); err != nil {
		return "", err
	}
	return pipeline.RenderStageTrace(p.Machine, retired), nil
}
