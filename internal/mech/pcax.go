package mech

import "fmt"

// The pcax kind is a PCAX-style PC-indexed address assist: a
// set-associative, LRU-replaced table that learns each static load's
// address delta and predicts as soon as two consecutive deltas agree
// (PAPERS.md: PCAX indexes its translation assist by load PC rather than by
// data address, which is exactly the organization modelled here). Compared
// to the stride baseline it trades the confidence counter for a
// two-delta-agreement rule and adds associativity, so aliasing loads
// coexist instead of thrashing a direct-mapped slot.
//
// Spec "pcax[:entries[xassoc]]": default 256 entries 4-way.

// Default geometry for a zero spec.
const (
	pcaxEntries = 256
	pcaxAssoc   = 4
)

func pcaxGeometry(s Spec) (entries, assoc int) {
	entries, assoc = s.Entries, s.Assoc
	if entries == 0 {
		entries = pcaxEntries
	}
	if assoc == 0 {
		assoc = pcaxAssoc
	}
	return entries, assoc
}

func checkPCAX(s Spec) error {
	entries, assoc := pcaxGeometry(s)
	if !powerOfTwo(entries) {
		return fmt.Errorf("pcax: entries (%d) must be a power of two", entries)
	}
	if assoc <= 0 || entries%assoc != 0 {
		return fmt.Errorf("pcax: entries (%d) must divide by assoc (%d)", entries, assoc)
	}
	if sets := entries / assoc; !powerOfTwo(sets) {
		return fmt.Errorf("pcax: sets (%d) must be a power of two", entries/assoc)
	}
	return nil
}

type pcaxEntry struct {
	valid bool
	tag   int64
	last  int64
	d1    int64 // most recent delta
	d2    int64 // the delta before it
	lru   int64
}

// pcaxTable is the PCAX-style table.
type pcaxTable struct {
	sets  [][]pcaxEntry
	mask  int64
	stamp int64
	stats Stats
}

func newPCAX(s Spec) Mechanism {
	entries, assoc := pcaxGeometry(s)
	nSets := entries / assoc
	a := &pcaxTable{sets: make([][]pcaxEntry, nSets), mask: int64(nSets - 1)}
	backing := make([]pcaxEntry, entries)
	for i := range a.sets {
		a.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return a
}

func (a *pcaxTable) find(pc int64) *pcaxEntry {
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
func (a *pcaxTable) Lookup(pc int64) (int64, bool) {
	a.stats.Lookups++
	if e := a.find(pc); e != nil && e.d1 == e.d2 {
		a.stamp++
		e.lru = a.stamp
		a.stats.Hits++
		return e.last + e.d1, true
	}
	a.stats.Misses++
	return 0, false
}

// Train observes a retiring load: a matching entry shifts its delta history
// (d2 <- d1 <- ea-last); a tag miss allocates into the first invalid way,
// else the LRU way. A fresh entry starts with disagreeing sentinel deltas
// so it cannot predict until two trained deltas agree.
func (a *pcaxTable) Train(pc, ea int64) bool {
	a.stats.Trains++
	a.stamp++
	if e := a.find(pc); e != nil {
		e.d2 = e.d1
		e.d1 = ea - e.last
		e.last = ea
		e.lru = a.stamp
		return false
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
	*victim = pcaxEntry{valid: true, tag: pc, last: ea, d1: 0, d2: -1, lru: a.stamp}
	a.stats.Allocs++
	return true
}

// Stats returns the accumulated counters.
func (a *pcaxTable) Stats() Stats { return a.stats }
