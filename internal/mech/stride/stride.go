// Package stride implements a classic stride/next-line prefetcher as a
// baseline competitor to the paper's compiler-directed mechanisms: a
// direct-mapped PC-indexed table whose entries track the last address, the
// current stride, and a two-bit confidence counter (the
// Chen/Baer-style reference-prediction-table organization the SupraX
// prefetch notes catalog). A load predicts last+stride only once the same
// stride has been observed with saturating confidence; stride 0 degenerates
// to same-address (next-line-ish) prediction, which is deliberate — it is
// what makes the baseline honest on pointer-stationary loads.
//
// The table is registered as mechanism kind "stride"
// (spec "stride[:entries]", direct-mapped, default 256 entries).
package stride

import (
	"fmt"

	"elag/internal/mech"
)

func init() {
	mech.Register("stride",
		"direct-mapped stride prefetch table, 2-bit confidence (baseline competitor)",
		New, validate)
}

// DefaultEntries is the table size a zero spec gets.
const DefaultEntries = 256

// confMax saturates the two-bit confidence counter; confPredict is the
// threshold at and above which the entry predicts.
const (
	confMax     = 3
	confPredict = 2
)

func validate(s mech.Spec) error {
	n := s.Entries
	if n == 0 {
		n = DefaultEntries
	}
	if !mech.PowerOfTwo(n) {
		return fmt.Errorf("stride: entries (%d) must be a power of two", n)
	}
	if s.Assoc > 1 {
		return fmt.Errorf("stride: the table is direct-mapped (assoc %d)", s.Assoc)
	}
	return nil
}

type entry struct {
	valid  bool
	tag    int64
	last   int64
	stride int64
	conf   int64
}

// Table is the stride prefetch table. Use New.
type Table struct {
	entries []entry
	mask    int64
	stats   mech.Stats
	ob      func(mech.Event)
}

// New builds a stride table from a spec of kind "stride".
func New(s mech.Spec) (mech.Mechanism, error) {
	if err := validate(s); err != nil {
		return nil, err
	}
	n := s.Entries
	if n == 0 {
		n = DefaultEntries
	}
	return &Table{entries: make([]entry, n), mask: int64(n - 1)}, nil
}

// Kind returns "stride".
func (t *Table) Kind() string { return "stride" }

// Lookup probes the entry for pc and predicts last+stride when the tag
// matches with saturated confidence. It never modifies entry state.
func (t *Table) Lookup(pc int64) (int64, bool) {
	t.stats.Lookups++
	e := &t.entries[pc&t.mask]
	if e.valid && e.tag == pc && e.conf >= confPredict {
		t.stats.Hits++
		addr := e.last + e.stride
		if t.ob != nil {
			t.ob(mech.Event{Op: mech.EvLookup, PC: pc, Addr: addr, Hit: true})
		}
		return addr, true
	}
	t.stats.Misses++
	if t.ob != nil {
		t.ob(mech.Event{Op: mech.EvLookup, PC: pc})
	}
	return 0, false
}

// Train observes a retiring load: a matching entry reinforces or decays its
// stride confidence (replacing the stride only once confidence reaches
// zero); a tag miss allocates, evicting whatever shared the slot.
func (t *Table) Train(pc, ea int64) {
	t.stats.Trains++
	e := &t.entries[pc&t.mask]
	if !e.valid || e.tag != pc {
		*e = entry{valid: true, tag: pc, last: ea}
		t.stats.Allocs++
		if t.ob != nil {
			t.ob(mech.Event{Op: mech.EvAlloc, PC: pc, Addr: ea})
		}
		return
	}
	d := ea - e.last
	switch {
	case d == e.stride:
		if e.conf < confMax {
			e.conf++
		}
	case e.conf > 0:
		e.conf--
	default:
		e.stride = d
	}
	e.last = ea
	if t.ob != nil {
		t.ob(mech.Event{Op: mech.EvTrain, PC: pc, Addr: ea})
	}
}

// Stats returns the accumulated counters.
func (t *Table) Stats() mech.Stats { return t.stats }

// SetObserver attaches (nil detaches) an event observer.
func (t *Table) SetObserver(f func(mech.Event)) { t.ob = f }

// HasObserver reports whether an observer is attached.
func (t *Table) HasObserver() bool { return t.ob != nil }
