// Package earlycalc models the early address-calculation register cache.
//
// In the paper's compiler-directed design this is the single special
// addressing register R_addr: a one-entry cache of one general-purpose
// register's content, (re)bound by each ld_e instruction. The paper keeps
// it coherent by a limited broadcast from the register file (only writes
// to the bound register need to be snooped). This model has no broadcast:
// an entry is bound valid at decode with the base register's value, and
// the pipeline checks the base register against its scoreboard when it
// reads the entry. A producer still in flight is the R_addr_Interlock term
// of the forwarding formula (pipeline's specEarly).
//
// With more than one entry the same structure models the hardware-only
// register-caching schemes the paper compares against (the BRIC of Austin
// and Sohi): loads allocate their base registers at decode, and register
// writeback must multicast to all matching entries. Figure 5b sweeps this
// design from 4 to 16 cached registers.
package earlycalc

import (
	"fmt"

	"elag/internal/isa"
)

// Config describes the register cache.
type Config struct {
	// Entries is the number of cached registers. 1 models the paper's
	// compiler-directed R_addr; 4..16 model the hardware-only schemes of
	// Figure 5b. Default 1.
	Entries int
}

// Validate reports whether the configuration describes a realizable
// register cache: a non-negative entry count no larger than the register
// file it shadows (0 defaults to 1).
func (c Config) Validate() error {
	if c.Entries < 0 || c.Entries > isa.NumIntRegs {
		return fmt.Errorf("earlycalc: entries (%d) must be in [0,%d]", c.Entries, isa.NumIntRegs)
	}
	return nil
}

// Stats accumulates cache behaviour.
type Stats struct {
	Lookups int64 // decode-stage lookups by base register
	Hits    int64 // lookups that found the register bound
	Binds   int64 // bindings/allocations performed
}

// HitRate returns Hits/Lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type entry struct {
	used  bool
	reg   isa.Reg
	value int64
	lru   int64
}

// Cache is the addressing-register cache. Use New.
type Cache struct {
	entries []entry
	stamp   int64
	stats   Stats
}

// New builds a register cache; cfg.Entries of 0 means 1.
func New(cfg Config) *Cache {
	n := cfg.Entries
	if n <= 0 {
		n = 1
	}
	return &Cache{entries: make([]entry, n)}
}

// Size returns the number of entries.
func (c *Cache) Size() int { return len(c.entries) }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) find(reg isa.Reg) *entry {
	for i := range c.entries {
		if e := &c.entries[i]; e.used && e.reg == reg {
			return e
		}
	}
	return nil
}

// Bind caches reg with the given value. This implements both the ld_e
// binding (compiler-directed) and the hardware-only allocate-on-decode
// policy; replacement is LRU.
func (c *Cache) Bind(reg isa.Reg, value int64) {
	c.stats.Binds++
	c.stamp++
	if e := c.find(reg); e != nil {
		e.value, e.lru = value, c.stamp
		return
	}
	victim := &c.entries[0]
	for i := range c.entries {
		e := &c.entries[i]
		if !e.used {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = entry{used: true, reg: reg, value: value, lru: c.stamp}
}

// Lookup returns the cached value for reg if it is bound. This is the
// decode-stage (ID1) access used to form the speculative address.
func (c *Cache) Lookup(reg isa.Reg) (value int64, ok bool) {
	c.stats.Lookups++
	e := c.find(reg)
	if e == nil {
		return 0, false
	}
	c.stamp++
	e.lru = c.stamp
	c.stats.Hits++
	return e.value, true
}
