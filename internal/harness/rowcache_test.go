package harness

import (
	"context"
	"encoding/json"
	"testing"

	"elag/internal/artifact"
	"elag/internal/workload"
)

func rowStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRowCacheWarmIdentical: a second runner sharing the store rebuilds
// Table 2 from cached rows alone — no labs built — and the document
// bytes are identical.
func TestRowCacheWarmIdentical(t *testing.T) {
	store := rowStore(t)
	ctx := context.Background()
	fuel := int64(200_000)

	cold := &Runner{Fuel: fuel, Artifacts: store, Counters: &Counters{}}
	coldRows, err := cold.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(workload.BySuite(workload.SPEC)))
	if got := cold.Counters.LabMisses.Load(); got != n {
		t.Errorf("cold run built %d labs, want %d", got, n)
	}

	warm := &Runner{Fuel: fuel, Artifacts: store, Counters: &Counters{}}
	warmRows, err := warm.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Counters.LabMisses.Load() + warm.Counters.LabHits.Load(); got != 0 {
		t.Errorf("warm run touched %d labs, want 0 (fully cached)", got)
	}

	coldJSON, _ := json.Marshal(coldRows)
	warmJSON, _ := json.Marshal(warmRows)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("warm rows differ from cold:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
}

// TestRowCachePartial: deleting one benchmark's row forces exactly that
// row to recompute; the others restore from the store.
func TestRowCachePartial(t *testing.T) {
	store := rowStore(t)
	ctx := context.Background()
	fuel := int64(200_000)

	cold := &Runner{Fuel: fuel, Artifacts: store, Counters: &Counters{}}
	coldRows, err := cold.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}

	benches := workload.BySuite(workload.SPEC)
	victim := benches[1]
	store.Delete(cold.rowKey("table2", nil, victim))

	warm := &Runner{Fuel: fuel, Artifacts: store, Counters: &Counters{}}
	warmRows, err := warm.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Counters.LabMisses.Load(); got != 1 {
		t.Errorf("partial warm run built %d labs, want 1", got)
	}
	coldJSON, _ := json.Marshal(coldRows)
	warmJSON, _ := json.Marshal(warmRows)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("partially recomputed rows differ from cold")
	}
}

// TestRowCacheFigureSeriesChange: figure rows carry their series labels
// in the key, so a different sweep never reuses them; the same sweep in
// a fresh runner is fully cached.
func TestRowCacheFigureSeriesChange(t *testing.T) {
	store := rowStore(t)
	w := workload.BySuite(workload.SPEC)[0]
	r := &Runner{Fuel: 200_000, Artifacts: store}
	a := r.rowKey("fig5a", []string{"hw-only 8", "compiler 8"}, w)
	b := r.rowKey("fig5a", []string{"hw-only 16", "compiler 16"}, w)
	if a == b {
		t.Errorf("different series labels produced the same row key")
	}
	if a != r.rowKey("fig5a", []string{"hw-only 8", "compiler 8"}, w) {
		t.Errorf("row key is not deterministic")
	}
	if a == r.rowKey("fig5b", []string{"hw-only 8", "compiler 8"}, w) {
		t.Errorf("experiment name must participate in the row key")
	}
	r2 := &Runner{Fuel: 100_000, Artifacts: store}
	if a == r2.rowKey("fig5a", []string{"hw-only 8", "compiler 8"}, w) {
		t.Errorf("fuel must participate in the row key")
	}
}

// TestRowCacheCrossExperiment: the embedded experiment caches per-row
// like the tables, and its rows are keyed apart from table rows over the
// same benchmarks. Every row an experiment computes looks its lab up
// once, so lab lookups count computed rows.
func TestRowCacheCrossExperiment(t *testing.T) {
	store := rowStore(t)
	ctx := context.Background()

	cold := &Runner{Fuel: 200_000, Artifacts: store, Counters: &Counters{}}
	coldRows, err := cold.Embedded(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4 shares the MediaBench suite but must not reuse embedded rows.
	if _, err := cold.Table4(ctx); err != nil {
		t.Fatal(err)
	}
	media := int64(len(workload.BySuite(workload.Media)))
	if got := cold.Counters.LabHits.Load() + cold.Counters.LabMisses.Load(); got != 2*media {
		t.Errorf("embedded+table4 looked up %d labs, want %d (no cross-experiment row reuse)", got, 2*media)
	}

	warm := &Runner{Fuel: 200_000, Artifacts: store, Counters: &Counters{}}
	warmRows, err := warm.Embedded(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Counters.LabHits.Load() + warm.Counters.LabMisses.Load(); got != 0 {
		t.Errorf("warm embedded looked up %d labs, want 0", got)
	}
	coldJSON, _ := json.Marshal(coldRows)
	warmJSON, _ := json.Marshal(warmRows)
	if string(coldJSON) != string(warmJSON) {
		t.Errorf("warm embedded rows differ from cold")
	}
}
