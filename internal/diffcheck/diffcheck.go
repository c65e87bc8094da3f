// Package diffcheck is the lockstep differential verifier: it replays one
// program through the functional emulator and the timing pipeline under a
// set of hardware configurations and cross-checks the two models against
// each other.
//
// The timing model holds no architectural state — it replays the
// emulator's trace — so the properties worth machine-checking are the ones
// that tie the two together:
//
//   - Trace integrity: re-executing the program architecturally reproduces
//     the recorded trace entry for entry (PC, sequence number, effective
//     address, branch outcome, next PC), and the NextPC chain links up.
//   - Architectural transparency: replaying the trace through the pipeline
//     (with speculation on or off) never mutates the program image, and a
//     re-emulation afterwards produces the identical architectural result.
//     Speculative cache accesses are timing-only; they must not change
//     what the program computes.
//   - Accounting consistency: every configuration's metrics satisfy the
//     counter algebra of the two speculation paths, the retired-instruction
//     counts match the emulator's, and per-load steering agrees with the
//     static load flavours.
//   - Watchdog: the cycle count stays under a generous CPI ceiling, so a
//     timing-model livelock (cycles running away from retirement) is caught
//     even on pathological generated programs.
package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
	_ "elag/internal/mech/all" // register the assist mechanisms
	"elag/internal/pipeline"
)

// NamedConfig pairs a label (for violation reports) with a pipeline
// configuration.
type NamedConfig struct {
	Name   string
	Config pipeline.Config
}

// DefaultConfigs returns the five selection policies the paper compares,
// at their reference geometries. The first entry is always the base
// (no-speculation) architecture, which anchors the cross-config cycle
// bound.
func DefaultConfigs() []NamedConfig {
	return []NamedConfig{
		{"base", pipeline.PaperBase()},
		{"compiler-directed", pipeline.PaperCompilerDirected()},
		{"all-predict", pipeline.Config{
			Select:     pipeline.SelAllPredict,
			Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: 256}},
		}},
		{"all-early", pipeline.Config{
			Select:     pipeline.SelAllEarly,
			Mechanisms: []mech.Spec{{Kind: "earlycalc", Entries: 4}},
		}},
		{"hw-dual", pipeline.Config{
			Select: pipeline.SelHWDual,
			Mechanisms: []mech.Spec{
				{Kind: "addrpred", Entries: 256},
				{Kind: "earlycalc", Entries: 4},
			},
		}},
	}
}

// MechConfigs returns the assist-mechanism differential configurations:
// the base (no-speculation) anchor, which is always first and anchors the
// cross-config cycle bound, then each registered assist mechanism at its
// reference geometry. Every assist must hold the full invariant suite —
// lockstep trace integrity, architectural transparency, counter algebra,
// steering and streaming equivalence.
func MechConfigs() []NamedConfig {
	return []NamedConfig{
		{"base", pipeline.PaperBase()},
		{"stride", pipeline.Config{
			Mechanisms: []mech.Spec{{Kind: "stride", Entries: 256}},
		}},
		{"pcax", pipeline.Config{
			Mechanisms: []mech.Spec{{Kind: "pcax", Entries: 256, Assoc: 4}},
		}},
	}
}

// Options parameterizes a differential check.
type Options struct {
	// Fuel bounds the emulated dynamic instruction count (<=0 for a
	// default of 1M). A fuel-truncated run is still checked: the prefix
	// trace is a valid trace.
	Fuel int64
	// Configs lists the hardware configurations to replay under; nil
	// means DefaultConfigs.
	Configs []NamedConfig
	// MaxCPI is the watchdog ceiling: a replay may not spend more than
	// MaxCPI cycles per retired instruction (<=0 for a default of 50).
	// The paper's machine retires up to 6 per cycle; a run anywhere
	// near the ceiling means the timing model has lost progress.
	MaxCPI int64
	// Classes, when non-nil, is cross-checked against the program's
	// load flavours: every classified load's flavour must agree with
	// its class.
	Classes *core.Classification
}

// Violation is one failed invariant.
type Violation struct {
	// Config names the configuration the violation occurred under, or
	// "" for configuration-independent checks.
	Config string
	// Check is the invariant's short name.
	Check string
	// Detail describes the observed inconsistency.
	Detail string
}

func (v Violation) String() string {
	if v.Config == "" {
		return fmt.Sprintf("%s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Config, v.Check, v.Detail)
}

// Report is the outcome of one differential check.
type Report struct {
	// Insts is the dynamic instruction count of the reference run.
	Insts int64
	// Truncated reports whether the reference run exhausted its fuel.
	Truncated bool
	// Cycles maps configuration name to replay cycle count.
	Cycles map[string]int64
	// Violations lists every failed invariant (empty means all passed).
	Violations []Violation
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when the check passed, or an error listing every
// violation.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "diffcheck: %d invariant violation(s):", len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}

func (r *Report) failf(cfg, check, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Config: cfg, Check: check, Detail: fmt.Sprintf(format, args...),
	})
}

// Check runs the full differential suite on prog. It returns an error only
// when the reference emulation itself faults (a program that traps is not
// checkable); invariant failures are reported in the Report.
func Check(prog *isa.Program, opt Options) (*Report, error) {
	if opt.Fuel <= 0 {
		opt.Fuel = 1_000_000
	}
	if opt.MaxCPI <= 0 {
		opt.MaxCPI = 50
	}
	configs := opt.Configs
	if configs == nil {
		configs = DefaultConfigs()
	}
	rep := &Report{Cycles: make(map[string]int64, len(configs))}

	res, trace, err := emu.RunTrace(prog, opt.Fuel)
	if err != nil {
		if !errors.Is(err, emu.ErrFuel) {
			return nil, fmt.Errorf("reference emulation: %w", err)
		}
		rep.Truncated = true
	}
	rep.Insts = res.DynamicInsts

	// Snapshot the program image: no replay below may mutate it.
	instSnap := append([]isa.Inst(nil), prog.Insts...)
	dataSnap := append([]byte(nil), prog.Data...)

	checkLockstep(prog, trace, rep)
	if opt.Classes != nil {
		checkClasses(prog, opt.Classes, "", rep)
	}

	var baseCycles int64
	seqMetrics := make([]*pipeline.Metrics, len(configs))
	for i, nc := range configs {
		m := checkConfig(prog, nc, trace, &res, opt.MaxCPI, rep)
		if m == nil {
			continue
		}
		seqMetrics[i] = m
		rep.Cycles[nc.Name] = m.Cycles
		if i == 0 {
			baseCycles = m.Cycles
		} else if baseCycles > 0 && m.Cycles > baseCycles*3/2 {
			// Early address generation only consumes spare ports:
			// it must never slow a program down by anything close
			// to 50% (same tolerance the pipeline's own random
			// tests use).
			rep.failf(nc.Name, "slowdown",
				"%d cycles vs %d under %s", m.Cycles, baseCycles, configs[0].Name)
		}
	}
	checkStream(prog, trace, opt.Fuel, configs, seqMetrics, rep)

	// Architectural transparency: the replays above must not have
	// touched the program image, and re-emulating now must reproduce the
	// reference result bit for bit.
	checkSnapshot(prog, instSnap, dataSnap, rep)
	res2, trace2, err2 := emu.RunTrace(prog, opt.Fuel)
	if err2 != nil && !errors.Is(err2, emu.ErrFuel) {
		rep.failf("", "re-emulation", "faulted after pipeline replay: %v", err2)
	} else {
		if res2.Output() != res.Output() {
			rep.failf("", "arch-result",
				"re-emulation result %q != reference %q", res2.Output(), res.Output())
		}
		if trace2.Len() != trace.Len() {
			rep.failf("", "arch-result",
				"re-emulation trace length %d != reference %d", trace2.Len(), trace.Len())
		}
	}
	return rep, nil
}

// checkLockstep steps a fresh CPU through the program, comparing each
// architectural step against the recorded trace entry and verifying the
// NextPC chain.
func checkLockstep(prog *isa.Program, trace *emu.Trace, rep *Report) {
	c := emu.New(prog)
	var te emu.TraceEntry
	n := trace.Len()
	for i := 0; i < n; i++ {
		if c.Halted() {
			rep.failf("", "lockstep", "CPU halted at step %d of %d", i, n)
			return
		}
		if err := c.Step(&te); err != nil {
			rep.failf("", "lockstep", "step %d faulted: %v", i, err)
			return
		}
		want := trace.At(i)
		if te != want {
			rep.failf("", "lockstep", "step %d: re-execution %+v != trace %+v", i, te, want)
			return
		}
		if i+1 < n && want.NextPC != int(trace.PC[i+1]) {
			rep.failf("", "lockstep",
				"step %d: NextPC %d but trace continues at %d", i, want.NextPC, trace.PC[i+1])
			return
		}
		if want.SeqNum != int64(i) {
			rep.failf("", "lockstep", "step %d: SeqNum %d", i, want.SeqNum)
			return
		}
	}
}

// checkStream verifies the streaming engine against the materialized one:
// StreamTrace's chunk concatenation must reproduce the recorded trace entry
// for entry (sequence numbers included), and a batched streamed replay of
// every configuration must produce metrics bit-identical to the sequential
// whole-trace replays. The awkward chunk size (97) forces partial final
// chunks on almost every program.
func checkStream(prog *isa.Program, trace *emu.Trace, fuel int64,
	configs []NamedConfig, seq []*pipeline.Metrics, rep *Report) {
	const chunk = 97
	stop := errors.New("stop")
	off := 0
	_, err := emu.StreamTrace(prog, fuel, chunk, func(c *emu.Trace) error {
		if c.Seq0 != int64(off) {
			rep.failf("", "stream-trace", "chunk Seq0 %d at offset %d", c.Seq0, off)
			return stop
		}
		n := c.Len()
		if n == 0 || n > chunk {
			rep.failf("", "stream-trace", "chunk of %d entries (chunk size %d)", n, chunk)
			return stop
		}
		if off+n > trace.Len() {
			rep.failf("", "stream-trace",
				"stream produced %d entries, trace has %d", off+n, trace.Len())
			return stop
		}
		for i := 0; i < n; i++ {
			if c.At(i) != trace.At(off+i) {
				rep.failf("", "stream-trace", "entry %d: stream %+v != trace %+v",
					off+i, c.At(i), trace.At(off+i))
				return stop
			}
		}
		off += n
		return nil
	})
	if err != nil && !errors.Is(err, emu.ErrFuel) && !errors.Is(err, stop) {
		rep.failf("", "stream-trace", "streaming emulation: %v", err)
		return
	}
	if errors.Is(err, stop) {
		return
	}
	if off != trace.Len() {
		rep.failf("", "stream-trace", "stream produced %d entries, trace has %d", off, trace.Len())
		return
	}

	specs := make([]pipeline.BatchSpec, len(configs))
	for i, nc := range configs {
		specs[i] = pipeline.BatchSpec{Config: nc.Config}
	}
	ms, _, err := pipeline.Replay(context.Background(), prog, specs,
		pipeline.Options{Fuel: fuel, Chunk: chunk})
	if err != nil {
		rep.failf("", "stream-batch", "batched replay: %v", err)
		return
	}
	for i, nc := range configs {
		if seq[i] == nil {
			continue
		}
		if !reflect.DeepEqual(ms[i], seq[i]) {
			rep.failf(nc.Name, "stream-batch",
				"batched streamed metrics differ from sequential replay: %d cycles vs %d",
				ms[i].Cycles, seq[i].Cycles)
		}
	}
}

// checkClasses verifies that the program's load flavours agree with the
// classification that claims to describe them. cfg labels the violations
// ("" for configuration-independent checks).
func checkClasses(prog *isa.Program, cl *core.Classification, cfg string, rep *Report) {
	nt, pd, ec := 0, 0, 0
	for pc := range prog.Insts {
		in := &prog.Insts[pc]
		if !in.IsLoad() {
			continue
		}
		var want isa.LoadFlavor
		switch cl.Class(pc) {
		case core.PD:
			want, pd = isa.LdP, pd+1
		case core.EC:
			want, ec = isa.LdE, ec+1
		default:
			want, nt = isa.LdN, nt+1
		}
		if in.Flavor != want {
			rep.failf(cfg, "class-flavor",
				"load at PC %d classified %v but flavoured %v", pc, cl.Class(pc), in.Flavor)
		}
	}
	if nt != cl.StaticNT || pd != cl.StaticPD || ec != cl.StaticEC {
		rep.failf(cfg, "class-counts",
			"static counts NT/PD/EC %d/%d/%d != classification %d/%d/%d",
			nt, pd, ec, cl.StaticNT, cl.StaticPD, cl.StaticEC)
	}
}

// dynamicLoadMix counts the trace's dynamic loads by steering-relevant
// category.
type dynamicLoadMix struct {
	total  int64 // all loads
	ldP    int64 // flavour ld_p
	ldE    int64 // flavour ld_e, addressable by the decode adder
	adder  int64 // any flavour, addressable by the decode adder
	regReg int64 // register+register (never early-calculable)
}

func countLoads(prog *isa.Program, trace *emu.Trace) dynamicLoadMix {
	var mix dynamicLoadMix
	for i, n := 0, trace.Len(); i < n; i++ {
		pc := int(trace.PC[i])
		if pc < 0 || pc >= len(prog.Insts) {
			continue
		}
		in := &prog.Insts[pc]
		if !in.IsLoad() {
			continue
		}
		mix.total++
		if in.Mode == isa.AMRegReg {
			mix.regReg++
		} else {
			mix.adder++
			if in.Flavor == isa.LdE {
				mix.ldE++
			}
		}
		if in.Flavor == isa.LdP {
			mix.ldP++
		}
	}
	return mix
}

// checkConfig replays the trace under one configuration and checks every
// per-configuration invariant. Returns nil when the replay itself failed.
func checkConfig(prog *isa.Program, nc NamedConfig, trace *emu.Trace,
	res *emu.Result, maxCPI int64, rep *Report) *pipeline.Metrics {
	sim, err := pipeline.New(nc.Config, prog, nil)
	if err != nil {
		rep.failf(nc.Name, "construct", "%v", err)
		return nil
	}
	m, err := sim.Run(trace)
	if err != nil {
		rep.failf(nc.Name, "replay", "%v", err)
		return nil
	}

	// Retirement accounting must match the architectural run.
	if m.Insts != res.DynamicInsts {
		rep.failf(nc.Name, "insts", "%d retired != %d emulated", m.Insts, res.DynamicInsts)
	}
	if m.Loads != res.DynamicLoads {
		rep.failf(nc.Name, "loads", "%d != %d", m.Loads, res.DynamicLoads)
	}
	if m.Stores != res.DynamicStore {
		rep.failf(nc.Name, "stores", "%d != %d", m.Stores, res.DynamicStore)
	}

	// Issue-width bound and livelock watchdog.
	width := int64(nc.Config.IssueWidth)
	if width <= 0 {
		width = 6
	}
	if m.Insts > 0 && m.Cycles*width < m.Insts {
		rep.failf(nc.Name, "issue-width", "%d cycles retire %d insts at width %d",
			m.Cycles, m.Insts, width)
	}
	if m.Cycles > maxCPI*(m.Insts+1) {
		rep.failf(nc.Name, "watchdog", "%d cycles for %d insts exceeds CPI ceiling %d",
			m.Cycles, m.Insts, maxCPI)
	}

	// Speculation-path counter algebra (Section 3.2's forwarding terms).
	p, e := &m.Predict, &m.Early
	if p.Eligible != p.Speculated+p.NoPrediction+p.NoPort {
		rep.failf(nc.Name, "predict-algebra",
			"eligible %d != speculated %d + no-prediction %d + no-port %d",
			p.Eligible, p.Speculated, p.NoPrediction, p.NoPort)
	}
	if p.Forwarded > p.Speculated {
		rep.failf(nc.Name, "predict-algebra",
			"forwarded %d > speculated %d", p.Forwarded, p.Speculated)
	}
	if p.Speculated-p.Forwarded > p.AddrMispredict+p.CacheMiss+p.MemInterlock {
		rep.failf(nc.Name, "predict-algebra",
			"%d failed speculations but only %d+%d+%d failure terms",
			p.Speculated-p.Forwarded, p.AddrMispredict, p.CacheMiss, p.MemInterlock)
	}
	if e.Eligible != e.Speculated+e.RegMiss+e.RegInterlock+e.NoPort {
		rep.failf(nc.Name, "early-algebra",
			"eligible %d != speculated %d + reg-miss %d + reg-interlock %d + no-port %d",
			e.Eligible, e.Speculated, e.RegMiss, e.RegInterlock, e.NoPort)
	}
	if e.Speculated != e.Forwarded+e.MemInterlock+e.CacheMiss {
		rep.failf(nc.Name, "early-algebra",
			"speculated %d != forwarded %d + mem-interlock %d + cache-miss %d",
			e.Speculated, e.Forwarded, e.MemInterlock, e.CacheMiss)
	}
	if m.DCacheStats.SpecAccesses != p.Speculated+e.Speculated {
		rep.failf(nc.Name, "spec-accesses",
			"dcache counted %d speculative accesses, paths launched %d+%d",
			m.DCacheStats.SpecAccesses, p.Speculated, e.Speculated)
	}
	if m.BTBStats.Branches != m.Branches {
		rep.failf(nc.Name, "branches", "BTB saw %d, pipeline retired %d",
			m.BTBStats.Branches, m.Branches)
	}

	// Steering: each policy's eligible counts must match the dynamic
	// load mix the trace actually contains.
	mix := countLoads(prog, trace)
	var hasTable, hasRC, hasAssist bool
	for _, sp := range nc.Config.Mechanisms {
		switch sp.Kind {
		case "addrpred":
			hasTable = true
		case "earlycalc":
			hasRC = true
		default:
			hasAssist = true
		}
	}
	wantP, wantE := int64(-1), int64(-1) // -1: not statically determined
	if hasAssist {
		// An assist mechanism drives every load regardless of flavour or
		// selection policy, and its counters land on the predict path.
		wantP, wantE = mix.total, 0
		if p.Eligible != wantP {
			rep.failf(nc.Name, "steering", "assist path saw %d loads, want %d", p.Eligible, wantP)
		}
		if e.Eligible != wantE {
			rep.failf(nc.Name, "steering", "early path saw %d loads under an assist, want 0", e.Eligible)
		}
		return m
	}
	switch nc.Config.Select {
	case pipeline.SelNone:
		wantP, wantE = 0, 0
	case pipeline.SelCompiler:
		wantP, wantE = 0, 0
		if hasTable {
			wantP = mix.ldP
		}
		if hasRC {
			wantE = mix.ldE
		}
	case pipeline.SelAllPredict:
		wantP, wantE = 0, 0
		if hasTable {
			wantP = mix.total
		}
	case pipeline.SelAllEarly:
		wantP, wantE = 0, 0
		if hasRC {
			wantE = mix.adder
		}
	case pipeline.SelHWDual:
		// Steering depends on run-time interlocks; only the union is
		// bounded: every load goes to at most one path, and reg+reg
		// loads never take the early path.
		if p.Eligible+e.Eligible > mix.total {
			rep.failf(nc.Name, "steering",
				"paths saw %d+%d loads, trace has %d", p.Eligible, e.Eligible, mix.total)
		}
		if e.Eligible > mix.adder {
			rep.failf(nc.Name, "steering",
				"early path saw %d loads, only %d are adder-addressable",
				e.Eligible, mix.adder)
		}
	}
	if wantP >= 0 && p.Eligible != wantP {
		rep.failf(nc.Name, "steering", "predict path saw %d loads, want %d", p.Eligible, wantP)
	}
	if wantE >= 0 && e.Eligible != wantE {
		rep.failf(nc.Name, "steering", "early path saw %d loads, want %d", e.Eligible, wantE)
	}
	return m
}

// checkSnapshot verifies the program image is bit-identical to the
// pre-replay snapshot.
func checkSnapshot(prog *isa.Program, insts []isa.Inst, data []byte, rep *Report) {
	if len(prog.Insts) != len(insts) {
		rep.failf("", "image", "instruction count changed: %d -> %d", len(insts), len(prog.Insts))
		return
	}
	for i := range insts {
		if prog.Insts[i] != insts[i] {
			rep.failf("", "image", "instruction %d mutated by replay: %+v -> %+v",
				i, insts[i], prog.Insts[i])
			return
		}
	}
	if string(prog.Data) != string(data) {
		rep.failf("", "image", "data image mutated by replay")
	}
}
