package harness

import (
	"sort"
	"sync"
	"sync/atomic"

	"elag/internal/mech"
)

// Counters aggregates the harness's work volume for an external metrics
// layer (elag-serve's /metrics endpoint). All fields are atomics updated
// from the replay hot path and the lab cache; a nil *Counters costs one
// comparison per chunk and nothing else. The counters observe — they
// never influence scheduling or results — so a grid run is byte-identical
// with or without them.
type Counters struct {
	// LabHits / LabMisses count lab-cache lookups: a hit joins an
	// existing (possibly still building, single-flight) lab, a miss
	// builds one.
	LabHits   atomic.Int64
	LabMisses atomic.Int64

	// Chunks / Insts count trace chunks and entries that went through the
	// replay engine of every lab wired to these counters. Each chunk is
	// counted once however many configurations replay it (batched replay
	// shares the chunk), so Insts measures streamed architectural
	// entries — the same unit as a simulate job's fuel.
	Chunks atomic.Int64
	Insts  atomic.Int64

	// mechMu guards lazy creation of per-kind rows in mechRows; the rows
	// themselves are atomics, so folding and scraping never hold the lock
	// while reading values. Keyed by mechanism kind ("stride", "pcax", …).
	mechMu   sync.Mutex
	mechRows map[string]*MechCounts
}

// MechCounts aggregates one mechanism kind's mech.Stats across every
// finished simulation that used it. The Stats algebra carries over to the
// aggregate: Lookups == Hits + Misses and Allocs <= Trains hold whenever no
// fold is in flight, because each simulation's self-consistent mech.Stats
// is folded in one CountMech call. The fold is field by field, so a reader
// racing it can see the algebra momentarily broken.
type MechCounts struct {
	Lookups atomic.Int64
	Hits    atomic.Int64
	Misses  atomic.Int64
	Trains  atomic.Int64
	Allocs  atomic.Int64
}

// CountChunk records one replayed chunk of n entries. nil-safe.
func (c *Counters) CountChunk(n int) {
	if c == nil {
		return
	}
	c.Chunks.Add(1)
	c.Insts.Add(int64(n))
}

// CountMech folds one simulation's mechanism counters into the per-kind
// aggregate. nil-safe, and a no-op for simulations that ran no assist
// mechanism (empty kind). Called once per finished Sim, off the hot path.
func (c *Counters) CountMech(kind string, st mech.Stats) {
	if c == nil || kind == "" {
		return
	}
	row := c.mechRow(kind)
	row.Lookups.Add(st.Lookups)
	row.Hits.Add(st.Hits)
	row.Misses.Add(st.Misses)
	row.Trains.Add(st.Trains)
	row.Allocs.Add(st.Allocs)
}

// mechRow returns the row for kind, creating it on first use.
func (c *Counters) mechRow(kind string) *MechCounts {
	c.mechMu.Lock()
	defer c.mechMu.Unlock()
	row := c.mechRows[kind]
	if row == nil {
		if c.mechRows == nil {
			c.mechRows = map[string]*MechCounts{}
		}
		row = &MechCounts{}
		c.mechRows[kind] = row
	}
	return row
}

// MechKinds returns the mechanism kinds observed so far, sorted. nil-safe.
func (c *Counters) MechKinds() []string {
	if c == nil {
		return nil
	}
	c.mechMu.Lock()
	defer c.mechMu.Unlock()
	out := make([]string, 0, len(c.mechRows))
	for k := range c.mechRows {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MechStats reads one kind's aggregate as a plain mech.Stats snapshot.
// A kind that has not been observed reads as all zeros, so scrape-time
// readers registered per registry kind need no existence check. nil-safe.
func (c *Counters) MechStats(kind string) mech.Stats {
	if c == nil {
		return mech.Stats{}
	}
	c.mechMu.Lock()
	row := c.mechRows[kind]
	c.mechMu.Unlock()
	if row == nil {
		return mech.Stats{}
	}
	return mech.Stats{
		Lookups: row.Lookups.Load(),
		Hits:    row.Hits.Load(),
		Misses:  row.Misses.Load(),
		Trains:  row.Trains.Load(),
		Allocs:  row.Allocs.Load(),
	}
}
