package pipeline

import (
	"fmt"

	"elag/internal/bpred"
	"elag/internal/cache"
	"elag/internal/mech"
)

// Selection chooses how loads are steered to the early address generation
// mechanisms, corresponding to the configurations evaluated in Section 5.
type Selection uint8

// Selection policies.
const (
	// SelNone disables early address generation entirely: the base
	// architecture all speedups are measured against.
	SelNone Selection = iota
	// SelCompiler follows the compiler-assigned load flavours: ld_p
	// loads use the prediction table, ld_e loads use the addressing
	// register cache, ld_n loads speculate on neither (the paper's
	// proposed scheme).
	SelCompiler
	// SelAllPredict treats every load as predictable: all loads probe
	// and allocate prediction-table entries (hardware-only prediction,
	// Figure 5a "no compiler support").
	SelAllPredict
	// SelAllEarly gives every register+offset load the early-calculation
	// path through the register cache, allocating base registers on use
	// (hardware-only early calculation, Figure 5b).
	SelAllEarly
	// SelHWDual is the hardware-only dual-path run-time heuristic of
	// Eickemeyer and Vassiliadis used in Figure 5c: a load whose base
	// register is interlocked at decode is steered to the prediction
	// table; otherwise it uses the early-calculation register cache.
	SelHWDual
)

// Machine is one of the paper's Section 5 machines: a selection policy
// and the default sizes of the structures it drives. Its name is the one
// spelling of the machine in -config, serve's configs[].name, diffcheck's
// labels and Selection.String.
type Machine struct {
	Name   string
	Select Selection
	// Table is the default "addrpred" prediction-table entries and Regs
	// the default "earlycalc" register-cache registers; 0 means the
	// selection drives no such structure.
	Table, Regs int
}

// Machines lists the paper's machines, one per selection, in the order
// the tools print them.
var Machines = []Machine{
	{"base", SelNone, 0, 0},
	{"hw-pred", SelAllPredict, 256, 0},
	{"hw-early", SelAllEarly, 0, 16},
	{"hw-dual", SelHWDual, 256, 16},
	{"compiler", SelCompiler, 256, 1},
}

// machine returns s's row of Machines.
func (s Selection) machine() (Machine, bool) {
	for _, m := range Machines {
		if m.Select == s {
			return m, true
		}
	}
	return Machine{}, false
}

// String names the selection by its machine.
func (s Selection) String() string {
	if m, ok := s.machine(); ok {
		return m.Name
	}
	return "?"
}

// Config returns the base architecture steered by s, with an "addrpred"
// prediction table of table entries and an "earlycalc" register cache of
// regs registers. A size of 0 leaves that structure out, and so does a
// selection that never drives it.
func (s Selection) Config(table, regs int) Config {
	m, _ := s.machine()
	c := Config{Select: s}
	if table != 0 && m.Table != 0 {
		c.Mechanisms = append(c.Mechanisms, mech.Spec{Kind: "addrpred", Entries: table})
	}
	if regs != 0 && m.Regs != 0 {
		c.Mechanisms = append(c.Mechanisms, mech.Spec{Kind: "earlycalc", Entries: regs})
	}
	return c
}

// AssistSpecs are the assist mechanisms at their reference geometries:
// FigureMech's columns and diffcheck's MechConfigs. The list is data so a
// new assist kind joins both by appending one spec.
var AssistSpecs = []mech.Spec{
	{Kind: "stride", Entries: 256},
	{Kind: "pcax", Entries: 256, Assoc: 4},
}

// Config parameterizes the timing model. The zero value, passed through
// (*Config).fill, yields the paper's base architecture of Section 5.1:
// 6-wide in-order issue; 4 integer ALUs, 2 memory ports, 2 FP ALUs, 1
// branch unit; 64K direct-mapped I and D caches with 64-byte blocks and a
// 12-cycle miss penalty; a 1K-entry BTB with 2-bit counters; and no early
// address generation.
type Config struct {
	// FetchWidth and IssueWidth bound instructions per cycle. Default 6.
	FetchWidth int
	IssueWidth int
	// Functional units. Defaults: 4 integer ALUs, 2 memory ports
	// (shared with the data cache), 2 FP ALUs, 1 branch unit.
	IntALUs     int
	MemPorts    int
	FPALUs      int
	BranchUnits int
	// Latencies in cycles. Defaults follow the HP PA-7100 model: 1 for
	// most integer ops (LatInt), 2 for loads (address + access), 3 for
	// integer multiply, 8 for divide/remainder, 2 for FP.
	LatMul int
	LatDiv int
	LatFP  int

	// ICache and DCache configure the memory system; zero fields take
	// the paper defaults (see package cache).
	ICache cache.Config
	DCache cache.Config
	// BTB configures the branch predictor (default 1024 entries).
	BTB bpred.Config

	// Select steers loads to the early-address-generation hardware.
	Select Selection

	// Mechanisms attaches load-acceleration hardware by mechanism spec
	// (see package mech and Selection.Config); it is the only way to
	// configure any. An "addrpred" spec instantiates the PC-indexed
	// address prediction table and an "earlycalc" spec the
	// early-calculation addressing register cache (Entries 1 is the
	// paper's R_addr); Select's machine must drive each (a nonzero
	// Machine.Table or Regs), and each appears at most once. At most one
	// spec of any other kind may appear: it attaches as the assist
	// mechanism, which drives every load through mech.Mechanism and is
	// mutually exclusive with the paper mechanisms.
	Mechanisms []mech.Spec
}

func (c *Config) fill() {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.FetchWidth, 6)
	def(&c.IssueWidth, 6)
	def(&c.IntALUs, 4)
	def(&c.MemPorts, 2)
	def(&c.FPALUs, 2)
	def(&c.BranchUnits, 1)
	def(&c.LatMul, 3)
	def(&c.LatDiv, 8)
	def(&c.LatFP, 2)
}

// Validate reports whether the configuration (with zero fields defaulted)
// describes a realizable machine, including the geometry of every attached
// structure. A Config that validates cleanly cannot make New fail or the
// timing model stall forever.
func (c Config) Validate() error {
	c.fill()
	widths := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"IssueWidth", c.IssueWidth},
		{"IntALUs", c.IntALUs},
		{"MemPorts", c.MemPorts},
		{"FPALUs", c.FPALUs},
		{"BranchUnits", c.BranchUnits},
	}
	for _, w := range widths {
		// Per-cycle use counts are uint8s; with no port, MEM would wait
		// forever.
		if w.v < 1 || w.v > 200 {
			return fmt.Errorf("pipeline: %s (%d) must be in [1,200]", w.name, w.v)
		}
	}
	if c.LatMul < 1 || c.LatDiv < 1 || c.LatFP < 1 {
		return fmt.Errorf("pipeline: latencies must be >= 1 (mul %d, div %d, fp %d)",
			c.LatMul, c.LatDiv, c.LatFP)
	}
	if err := c.ICache.Validate(); err != nil {
		return fmt.Errorf("pipeline: icache: %w", err)
	}
	if err := c.DCache.Validate(); err != nil {
		return fmt.Errorf("pipeline: dcache: %w", err)
	}
	if err := c.BTB.Validate(); err != nil {
		return fmt.Errorf("pipeline: btb: %w", err)
	}
	m, ok := c.Select.machine()
	if !ok {
		return fmt.Errorf("pipeline: unknown selection policy %d", c.Select)
	}
	var nPred, nRC, nAssist int
	for _, sp := range c.Mechanisms {
		if err := mech.Validate(sp); err != nil {
			return fmt.Errorf("pipeline: mechanism %s: %w", sp, err)
		}
		switch sp.Kind {
		case "addrpred":
			nPred++
			if m.Table == 0 {
				return fmt.Errorf("pipeline: mechanism %s: selection %s never uses the prediction table", sp, c.Select)
			}
		case "earlycalc":
			nRC++
			if m.Regs == 0 {
				return fmt.Errorf("pipeline: mechanism %s: selection %s never uses the register cache", sp, c.Select)
			}
		default:
			nAssist++
		}
	}
	if nPred > 1 {
		return fmt.Errorf("pipeline: the prediction table is configured %d times (one addrpred spec at most)", nPred)
	}
	if nRC > 1 {
		return fmt.Errorf("pipeline: the register cache is configured %d times (one earlycalc spec at most)", nRC)
	}
	if nAssist > 1 {
		return fmt.Errorf("pipeline: at most one assist mechanism may be configured (got %d)", nAssist)
	}
	if nAssist == 1 && nPred+nRC > 0 {
		return fmt.Errorf("pipeline: an assist mechanism is mutually exclusive with the paper mechanisms")
	}
	return nil
}
