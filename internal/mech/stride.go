package mech

import "fmt"

// The stride kind is a classic stride/next-line prefetcher as a baseline
// competitor to the paper's compiler-directed mechanisms: a direct-mapped
// PC-indexed table whose entries track the last address, the current
// stride, and a two-bit confidence counter (the Chen/Baer-style
// reference-prediction-table organization the SupraX prefetch notes
// catalog). A load predicts last+stride only once the same stride has been
// observed with saturating confidence; stride 0 degenerates to
// same-address (next-line-ish) prediction, which is deliberate — it is
// what makes the baseline honest on pointer-stationary loads.
//
// Spec "stride[:entries]": direct-mapped, default 256 entries.

// strideEntries is the table size a zero spec gets.
const strideEntries = 256

// strideConfMax saturates the two-bit confidence counter; strideConfPredict
// is the threshold at and above which the entry predicts.
const (
	strideConfMax     = 3
	strideConfPredict = 2
)

func strideSize(s Spec) int {
	if s.Entries == 0 {
		return strideEntries
	}
	return s.Entries
}

func checkStride(s Spec) error {
	if n := strideSize(s); !powerOfTwo(n) {
		return fmt.Errorf("stride: entries (%d) must be a power of two", n)
	}
	if s.Assoc > 1 {
		return fmt.Errorf("stride: the table is direct-mapped (assoc %d)", s.Assoc)
	}
	return nil
}

type strideEntry struct {
	valid  bool
	tag    int64
	last   int64
	stride int64
	conf   int64
}

// strideTable is the stride prefetch table.
type strideTable struct {
	entries []strideEntry
	mask    int64
	stats   Stats
}

func newStride(s Spec) Mechanism {
	n := strideSize(s)
	return &strideTable{entries: make([]strideEntry, n), mask: int64(n - 1)}
}

// Lookup probes the entry for pc and predicts last+stride when the tag
// matches with saturated confidence. It never modifies entry state.
func (t *strideTable) Lookup(pc int64) (int64, bool) {
	t.stats.Lookups++
	e := &t.entries[pc&t.mask]
	if e.valid && e.tag == pc && e.conf >= strideConfPredict {
		t.stats.Hits++
		return e.last + e.stride, true
	}
	t.stats.Misses++
	return 0, false
}

// Train observes a retiring load: a matching entry reinforces or decays its
// stride confidence (replacing the stride only once confidence reaches
// zero); a tag miss allocates, evicting whatever shared the slot.
func (t *strideTable) Train(pc, ea int64) bool {
	t.stats.Trains++
	e := &t.entries[pc&t.mask]
	if !e.valid || e.tag != pc {
		*e = strideEntry{valid: true, tag: pc, last: ea}
		t.stats.Allocs++
		return true
	}
	d := ea - e.last
	switch {
	case d == e.stride:
		if e.conf < strideConfMax {
			e.conf++
		}
	case e.conf > 0:
		e.conf--
	default:
		e.stride = d
	}
	e.last = ea
	return false
}

// Stats returns the accumulated counters.
func (t *strideTable) Stats() Stats { return t.stats }
