// Package bpred implements the branch predictor of the paper's base
// architecture: a 1K-entry branch target buffer (BTB) with 2-bit saturating
// counters (Section 5.1).
package bpred

import "fmt"

// Config describes the BTB geometry.
type Config struct {
	// Entries is the number of direct-mapped BTB entries. Default 1024.
	Entries int
}

// Validate reports whether the configuration (with zero fields defaulted)
// describes a realizable BTB: a positive power-of-two entry count.
func (c Config) Validate() error {
	n := c.Entries
	if n == 0 {
		n = 1024
	}
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("bpred: entries (%d) must be a positive power of two", c.Entries)
	}
	return nil
}

// Stats accumulates prediction outcomes for conditional branches.
type Stats struct {
	Branches    int64 // conditional branches predicted
	Mispredicts int64 // wrong direction or wrong target
}

// Accuracy returns the fraction of correct conditional-branch predictions.
func (s Stats) Accuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Branches)
}

type entry struct {
	valid   bool
	tag     int64
	counter uint8 // 2-bit saturating: 0,1 = not taken; 2,3 = taken
	target  int
}

// BTB is a direct-mapped branch target buffer with 2-bit counters.
type BTB struct {
	entries []entry
	mask    int64
	stats   Stats
}

// New builds a BTB; cfg.Entries must be a power of two (0 means 1024). A
// geometry that fails Validate is returned as an error.
func New(cfg Config) (*BTB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Entries
	if n == 0 {
		n = 1024
	}
	return &BTB{entries: make([]entry, n), mask: int64(n - 1)}, nil
}

// Stats returns accumulated outcome counts.
func (b *BTB) Stats() Stats { return b.stats }

// Predict returns the predicted direction and target for the conditional
// branch at pc. A BTB miss predicts not-taken.
func (b *BTB) Predict(pc int) (taken bool, target int) {
	e := &b.entries[int64(pc)&b.mask]
	if !e.valid || e.tag != int64(pc) {
		return false, pc + 1
	}
	return e.counter >= 2, e.target
}

// Lookup returns the cached target for pc on a tag hit, regardless of the
// counter state. It is used for unconditional control transfers (jumps,
// calls, returns), whose direction is always taken.
func (b *BTB) Lookup(pc int) (target int, ok bool) {
	e := &b.entries[int64(pc)&b.mask]
	if !e.valid || e.tag != int64(pc) {
		return 0, false
	}
	return e.target, true
}

// Insert records the target of the unconditional control transfer at pc,
// allocating or updating its entry with a strongly-taken counter.
func (b *BTB) Insert(pc, target int) {
	e := &b.entries[int64(pc)&b.mask]
	*e = entry{valid: true, tag: int64(pc), counter: 3, target: target}
}

// Update trains the predictor with the resolved outcome of the conditional
// branch at pc and records whether the earlier prediction was correct.
func (b *BTB) Update(pc int, taken bool, target int) (mispredicted bool) {
	predTaken, predTarget := b.Predict(pc)
	mispredicted = predTaken != taken || (taken && predTarget != target)
	b.stats.Branches++
	if mispredicted {
		b.stats.Mispredicts++
	}

	e := &b.entries[int64(pc)&b.mask]
	if !e.valid || e.tag != int64(pc) {
		// Allocate on taken branches only; a never-taken branch needs
		// no BTB entry (not-taken is the default prediction).
		if !taken {
			return mispredicted
		}
		*e = entry{valid: true, tag: int64(pc), counter: 2, target: target}
		return mispredicted
	}
	if taken {
		if e.counter < 3 {
			e.counter++
		}
		e.target = target
	} else if e.counter > 0 {
		e.counter--
	}
	return mispredicted
}
