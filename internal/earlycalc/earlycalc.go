// Package earlycalc models the early address-calculation register cache.
//
// In the paper's compiler-directed design this is the single special
// addressing register R_addr: a one-entry cache of one general-purpose
// register's content, (re)bound by each ld_e instruction, kept coherent by
// a limited broadcast from the register file (only writes to the bound
// register need to be snooped).
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
	Hits    int64 // lookups that found a valid, coherent entry
	Binds   int64 // bindings/allocations performed
}

// HitRate returns Hits/Lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// EventOp discriminates observer events.
type EventOp uint8

// Observer event operations.
const (
	// OpBind: a register was (re)bound into the cache.
	OpBind EventOp = iota
	// OpInvalidate: a cached register became incoherent (in-flight write).
	OpInvalidate
	// OpBroadcast: a register-file write was delivered to the cache.
	OpBroadcast
)

// Event is one observable state change of the register cache.
type Event struct {
	Op    EventOp
	Reg   isa.Reg
	Value int64
	// Valid reports the entry's coherence after the operation.
	Valid bool
}

type entry struct {
	used  bool
	reg   isa.Reg
	value int64
	// valid is false while the bound register has an in-flight producer
	// whose value has not yet been broadcast; looking the entry up in
	// that window is the R_addr interlock of the forwarding formula.
	valid bool
	lru   int64
}

// Cache is the addressing-register cache. Use New.
type Cache struct {
	entries []entry
	stamp   int64
	stats   Stats

	// Observer, when non-nil, receives an Event for every Bind,
	// Invalidate and Broadcast. Nil (the default) costs one branch.
	Observer func(Event)
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

// Bind caches reg with the given value. valid=false records a binding whose
// producing instruction is still in flight (the value will arrive via
// Broadcast). This implements both the ld_e binding (compiler-directed) and
// the hardware-only allocate-on-decode policy; replacement is LRU.
func (c *Cache) Bind(reg isa.Reg, value int64, valid bool) {
	c.stats.Binds++
	c.stamp++
	if c.Observer != nil {
		c.Observer(Event{Op: OpBind, Reg: reg, Value: value, Valid: valid})
	}
	if e := c.find(reg); e != nil {
		e.value, e.valid, e.lru = value, valid, c.stamp
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
	*victim = entry{used: true, reg: reg, value: value, valid: valid, lru: c.stamp}
}

// Lookup returns the cached value for reg if present and coherent. This is
// the decode-stage (ID1) access used to form the speculative address.
func (c *Cache) Lookup(reg isa.Reg) (value int64, ok bool) {
	c.stats.Lookups++
	e := c.find(reg)
	if e == nil || !e.valid {
		return 0, false
	}
	c.stamp++
	e.lru = c.stamp
	c.stats.Hits++
	return e.value, true
}

// Contains reports whether reg is cached (valid or not), without touching
// statistics or LRU state.
func (c *Cache) Contains(reg isa.Reg) bool { return c.find(reg) != nil }

// Broadcast delivers a register-file write to the cache: any entry bound to
// reg is updated and becomes valid. For the one-entry R_addr this is the
// paper's "limited broadcast"; for multi-entry caches it is the multicast
// write the paper's design avoids.
func (c *Cache) Broadcast(reg isa.Reg, value int64) {
	for i := range c.entries {
		if e := &c.entries[i]; e.used && e.reg == reg {
			e.value = value
			e.valid = true
			if c.Observer != nil {
				c.Observer(Event{Op: OpBroadcast, Reg: reg, Value: value, Valid: true})
			}
		}
	}
}

// Invalidate marks any entry bound to reg as incoherent until the next
// Broadcast, modelling an in-flight write that has been decoded but whose
// value is not yet available.
func (c *Cache) Invalidate(reg isa.Reg) {
	for i := range c.entries {
		if e := &c.entries[i]; e.used && e.reg == reg {
			e.valid = false
			if c.Observer != nil {
				c.Observer(Event{Op: OpInvalidate, Reg: reg, Value: e.value, Valid: false})
			}
		}
	}
}

// Reset clears all entries and statistics.
func (c *Cache) Reset() {
	for i := range c.entries {
		c.entries[i] = entry{}
	}
	c.stamp = 0
	c.stats = Stats{}
}
