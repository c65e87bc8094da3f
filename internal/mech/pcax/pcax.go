// Package pcax implements a PCAX-style PC-indexed address assist: a
// set-associative, LRU-replaced table that learns each static load's
// address delta and predicts as soon as two consecutive deltas agree
// (PAPERS.md: PCAX indexes its translation assist by load PC rather than by
// data address, which is exactly the organization modelled here). Compared
// to the stride baseline it trades the confidence counter for a
// two-delta-agreement rule and adds associativity, so aliasing loads
// coexist instead of thrashing a direct-mapped slot.
//
// Registered as mechanism kind "pcax" (spec "pcax[:entries[xassoc]]",
// default 256 entries 4-way).
package pcax

import (
	"fmt"

	"elag/internal/mech"
)

func init() {
	mech.Register("pcax",
		"set-associative PC-indexed address assist, two-delta agreement (PCAX-style)",
		New, validate)
}

// Default geometry for a zero spec.
const (
	DefaultEntries = 256
	DefaultAssoc   = 4
)

func geometry(s mech.Spec) (entries, assoc int) {
	entries, assoc = s.Entries, s.Assoc
	if entries == 0 {
		entries = DefaultEntries
	}
	if assoc == 0 {
		assoc = DefaultAssoc
	}
	return entries, assoc
}

func validate(s mech.Spec) error {
	entries, assoc := geometry(s)
	if !mech.PowerOfTwo(entries) {
		return fmt.Errorf("pcax: entries (%d) must be a power of two", entries)
	}
	if assoc <= 0 || entries%assoc != 0 {
		return fmt.Errorf("pcax: entries (%d) must divide by assoc (%d)", entries, assoc)
	}
	if sets := entries / assoc; !mech.PowerOfTwo(sets) {
		return fmt.Errorf("pcax: sets (%d) must be a power of two", entries/assoc)
	}
	return nil
}

type entry struct {
	valid bool
	tag   int64
	last  int64
	d1    int64 // most recent delta
	d2    int64 // the delta before it
	lru   int64
}

// Assist is the PCAX-style table. Use New.
type Assist struct {
	sets  [][]entry
	mask  int64
	stamp int64
	stats mech.Stats
	ob    func(mech.Event)
}

// New builds an assist from a spec of kind "pcax".
func New(s mech.Spec) (mech.Mechanism, error) {
	if err := validate(s); err != nil {
		return nil, err
	}
	entries, assoc := geometry(s)
	nSets := entries / assoc
	a := &Assist{sets: make([][]entry, nSets), mask: int64(nSets - 1)}
	backing := make([]entry, entries)
	for i := range a.sets {
		a.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return a, nil
}

// Kind returns "pcax".
func (a *Assist) Kind() string { return "pcax" }

func (a *Assist) find(pc int64) *entry {
	set := a.sets[pc&a.mask]
	for i := range set {
		if e := &set[i]; e.valid && e.tag == pc {
			return e
		}
	}
	return nil
}

// Lookup probes the set for pc and predicts last+d1 when the two most
// recent deltas agree. A hit promotes the entry's recency.
func (a *Assist) Lookup(pc int64) (int64, bool) {
	a.stats.Lookups++
	if e := a.find(pc); e != nil && e.d1 == e.d2 {
		a.stamp++
		e.lru = a.stamp
		a.stats.Hits++
		addr := e.last + e.d1
		if a.ob != nil {
			a.ob(mech.Event{Op: mech.EvLookup, PC: pc, Addr: addr, Hit: true})
		}
		return addr, true
	}
	a.stats.Misses++
	if a.ob != nil {
		a.ob(mech.Event{Op: mech.EvLookup, PC: pc})
	}
	return 0, false
}

// Train observes a retiring load: a matching entry shifts its delta history
// (d2 <- d1 <- ea-last); a tag miss allocates into the first invalid way,
// else the LRU way. A fresh entry starts with disagreeing sentinel deltas
// so it cannot predict until two trained deltas agree.
func (a *Assist) Train(pc, ea int64) {
	a.stats.Trains++
	a.stamp++
	if e := a.find(pc); e != nil {
		e.d2 = e.d1
		e.d1 = ea - e.last
		e.last = ea
		e.lru = a.stamp
		if a.ob != nil {
			a.ob(mech.Event{Op: mech.EvTrain, PC: pc, Addr: ea})
		}
		return
	}
	set := a.sets[pc&a.mask]
	victim := &set[0]
	for i := range set {
		e := &set[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = entry{valid: true, tag: pc, last: ea, d1: 0, d2: -1, lru: a.stamp}
	a.stats.Allocs++
	if a.ob != nil {
		a.ob(mech.Event{Op: mech.EvAlloc, PC: pc, Addr: ea})
	}
}

// Stats returns the accumulated counters.
func (a *Assist) Stats() mech.Stats { return a.stats }

// SetObserver attaches (nil detaches) an event observer.
func (a *Assist) SetObserver(f func(mech.Event)) { a.ob = f }

// HasObserver reports whether an observer is attached.
func (a *Assist) HasObserver() bool { return a.ob != nil }
