// Package profile implements the paper's address profiling (Section 4.3)
// and the per-load prediction-rate methodology behind Tables 2-4: every
// static load gets its own instance of the Figure 3 stride state machine
// (an unlimited table, so rates are not distorted by entry contention), and
// its prediction rate is the fraction of its executions whose address the
// machine predicted correctly.
package profile

import (
	"context"

	"elag/internal/addrpred"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/isa"
)

// LoadProfile records per-static-load execution and prediction counts.
type LoadProfile struct {
	// Execs counts dynamic executions per static load PC.
	Execs map[int]int64
	// Correct counts executions whose address was predicted correctly
	// by the per-load stride machine.
	Correct map[int]int64
	// TotalLoads is the total dynamic load count.
	TotalLoads int64
}

// Collect emulates prog and profiles every load. fuel bounds the emulated
// instruction count (<= 0 for the default); running out returns the
// emulator's fuel fault, with its PC and sequence number, which matches
// emu.ErrFuel.
func Collect(prog *isa.Program, fuel int64) (*LoadProfile, emu.Result, error) {
	return CollectContext(context.Background(), prog, fuel)
}

// CollectContext is Collect with cooperative cancellation: ctx is checked
// every emu.DefaultChunkSize instructions — the same granularity as the
// streaming trace — so a profiling run over a pathological program aborts
// promptly with the ctx error. An uncancelled run is identical to Collect.
func CollectContext(ctx context.Context, prog *isa.Program, fuel int64) (*LoadProfile, emu.Result, error) {
	p := &LoadProfile{
		Execs:   make(map[int]int64),
		Correct: make(map[int]int64),
	}
	entries := make(map[int]*addrpred.Entry)
	if fuel <= 0 {
		fuel = 200_000_000
	}
	c := emu.New(prog)
	var te emu.TraceEntry
	next := int64(emu.DefaultChunkSize) // next cancellation checkpoint
	for !c.Halted() {
		if n := c.Result().DynamicInsts; n >= next {
			if err := ctx.Err(); err != nil {
				return p, c.Result(), err
			}
			next = n + emu.DefaultChunkSize
		}
		if n := c.Result().DynamicInsts; n >= fuel {
			return p, c.Result(), &isa.Fault{Kind: isa.FaultFuel, PC: c.PC, SeqNum: n}
		}
		if err := c.Step(&te); err != nil {
			return p, c.Result(), err
		}
		in := &prog.Insts[te.PC]
		if !in.IsLoad() {
			continue
		}
		e := entries[te.PC]
		if e == nil {
			e = &addrpred.Entry{}
			entries[te.PC] = e
		}
		p.Execs[te.PC]++
		p.TotalLoads++
		if e.Update(te.EA) {
			p.Correct[te.PC]++
		}
	}
	return p, c.Result(), nil
}

// Rate returns the prediction rate of the load at pc in [0,1], and whether
// the load executed at all.
func (p *LoadProfile) Rate(pc int) (float64, bool) {
	n := p.Execs[pc]
	if n == 0 {
		return 0, false
	}
	return float64(p.Correct[pc]) / float64(n), true
}

// Rates returns the per-PC prediction-rate map consumed by
// core.Reclassify.
func (p *LoadProfile) Rates() map[int]float64 {
	m := make(map[int]float64, len(p.Execs))
	for pc, n := range p.Execs {
		if n > 0 {
			m[pc] = float64(p.Correct[pc]) / float64(n)
		}
	}
	return m
}

// ClassRate returns the dynamic prediction rate (total correct / total
// executions) over the loads assigned the given class, in percent — the
// "Prediction Rate" columns of Tables 2-4.
func (p *LoadProfile) ClassRate(c *core.Classification, class core.Class) float64 {
	var execs, correct int64
	for pc, n := range p.Execs {
		if c.Class(pc) != class {
			continue
		}
		execs += n
		correct += p.Correct[pc]
	}
	if execs == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(execs)
}

// DynamicShare returns the percentage of dynamic loads executed by loads of
// the given class — the "% Dynamic Loads" columns of Tables 2-4.
func (p *LoadProfile) DynamicShare(c *core.Classification, class core.Class) float64 {
	if p.TotalLoads == 0 {
		return 0
	}
	var execs int64
	for pc, n := range p.Execs {
		if c.Class(pc) == class {
			execs += n
		}
	}
	return 100 * float64(execs) / float64(p.TotalLoads)
}
