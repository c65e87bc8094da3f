package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
	"elag/internal/pipeline"
)

// Counters aggregates the harness's work volume for an external metrics
// layer (elag-serve's /metrics endpoint). All fields are atomics updated
// between replay chunks and by the lab cache; a nil *Counters costs one
// comparison per replay and nothing else. The counters observe — they
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
// is folded in one countMech call. The fold is field by field, so a reader
// racing it can see the algebra momentarily broken.
type MechCounts struct {
	Lookups atomic.Int64
	Hits    atomic.Int64
	Misses  atomic.Int64
	Trains  atomic.Int64
	Allocs  atomic.Int64
}

// Replay is pipeline.Replay with the run's work volume folded into c:
// every replayed chunk is counted before o.OnChunk (if any) sees it, and
// each finished simulation's mechanism counters are folded per kind. It is
// the replay call of both harness labs and elag-serve simulate jobs, so
// the two count work identically. nil-safe: a nil c replays uncounted.
func (c *Counters) Replay(ctx context.Context, prog *isa.Program, specs []pipeline.BatchSpec, o pipeline.Options) ([]*pipeline.Metrics, emu.Result, error) {
	if c == nil {
		return pipeline.Replay(ctx, prog, specs, o)
	}
	onChunk := o.OnChunk
	o.OnChunk = func(done int64, n int) {
		c.Chunks.Add(1)
		c.Insts.Add(int64(n))
		if onChunk != nil {
			onChunk(done, n)
		}
	}
	ms, res, err := pipeline.Replay(ctx, prog, specs, o)
	if err != nil {
		return nil, res, err
	}
	for _, m := range ms {
		if m.MechStats != nil {
			c.countMech(m.MechKind, *m.MechStats)
		}
	}
	return ms, res, nil
}

// countMech folds one simulation's mechanism counters into the per-kind
// aggregate; a no-op for simulations that ran no assist mechanism (empty
// kind). Called once per finished Sim, off the hot path.
func (c *Counters) countMech(kind string, st mech.Stats) {
	if kind == "" {
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

// MechStats reads one kind's aggregate as a plain mech.Stats snapshot.
// A kind that has not been observed reads as all zeros, so scrape-time
// readers declared per kind need no existence check. nil-safe.
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
