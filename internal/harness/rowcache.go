package harness

import (
	"context"
	"encoding/json"

	"elag/internal/artifact"
	"elag/internal/workload"
)

// Per-row grid caching: every grid experiment is a set of independent
// per-benchmark rows, each a pure function of (experiment, series shape,
// benchmark source, fuel, chunk size). With Runner.Artifacts attached,
// forEachLabCached keys each row canonically, decodes the rows the store
// already has, and runs the grid machinery over only the missing
// benchmarks — so a grid that overlaps a previous one (a re-run, a
// narrower experiment selection, a different tool sharing the store)
// recomputes exactly the rows it lacks. Averages are recomputed from the
// restored rows; since JSON round-trips float64 exactly, a document
// assembled from cached rows is byte-identical to a cold one.

// rowKeySchema versions the row-key derivation and the row shapes
// together; bump on any change to either.
const rowKeySchema = "elag-grid-row/v1"

// rowKey derives the content-address of one benchmark's row. exp names
// the experiment ("table2", "fig5a", ...); extra carries experiment
// shape beyond the name (figure series labels), so a series change
// misses cleanly. The benchmark is keyed by name and source — editing a
// workload invalidates its rows. BenchSchema participates so a document
// shape bump invalidates everything. Parallelism and batching are
// excluded: results are byte-identical at every setting (DESIGN.md
// §10/§11).
func (r *Runner) rowKey(exp string, extra []string, w *workload.Workload) artifact.Key {
	d := artifact.NewDigest(rowKeySchema)
	d.Str("bench_schema", BenchSchema)
	d.Str("exp", exp)
	for _, e := range extra {
		d.Str("series", e)
	}
	d.Str("bench", w.Name)
	d.Str("source", w.Source)
	d.Int("fuel", r.Fuel)
	d.Int("chunk", int64(r.ChunkSize))
	return d.Key()
}

// forEachLabCached is forEachLab with per-row artifact caching. slot(i)
// returns a pointer to benchmark i's result slot: cached rows are
// decoded straight into it, and after fn fills the missing ones their
// slots are marshalled and stored. Without a store it degrades to plain
// forEachLab. Progress (and lab-cache counters) reflect only the rows
// actually computed — a fully cached experiment builds no labs at all.
func (r *Runner) forEachLabCached(ctx context.Context, exp string, extra []string,
	benches []*workload.Workload, slot func(i int) any,
	fn func(ctx context.Context, i int, l *Lab) error) error {
	if r.Artifacts == nil {
		return r.forEachLab(ctx, benches, fn)
	}
	var missing []int
	for i, w := range benches {
		if data, ok := r.Artifacts.Get(r.rowKey(exp, extra, w)); ok {
			if json.Unmarshal(data, slot(i)) == nil {
				continue
			}
		}
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return ctx.Err()
	}
	sub := make([]*workload.Workload, len(missing))
	for k, i := range missing {
		sub[k] = benches[i]
	}
	err := r.forEachLab(ctx, sub, func(ctx context.Context, k int, l *Lab) error {
		return fn(ctx, missing[k], l)
	})
	if err != nil {
		return err
	}
	for _, i := range missing {
		if data, err := json.Marshal(slot(i)); err == nil {
			r.Artifacts.Put(r.rowKey(exp, extra, benches[i]), data)
		}
	}
	return nil
}
