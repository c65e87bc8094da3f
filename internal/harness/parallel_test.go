package harness_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"elag/internal/harness"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// artifactJSON runs Table 2 and Figure 5a on a fresh runner and returns
// their canonical JSON encoding.
func artifactJSON(t *testing.T, r *harness.Runner) []byte {
	t.Helper()
	rows, err := r.Table2(ctx)
	if err != nil {
		t.Fatalf("%+v: table2: %v", r, err)
	}
	fig, err := r.Figure5a(ctx)
	if err != nil {
		t.Fatalf("%+v: fig5a: %v", r, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range []any{rows, fig} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the engine's headline guarantee: the grid
// experiments produce byte-identical artifacts — cycle counts, speedups,
// float averages and all — at every parallelism level, with traces
// materialized or streamed. Run under -race this also proves the fan-out is
// data-race-free.
func TestParallelDeterminism(t *testing.T) {
	fuel := int64(120_000)
	if testing.Short() {
		fuel = 40_000
	}
	want := artifactJSON(t, &harness.Runner{Fuel: fuel, Parallel: 1})
	variants := []struct {
		name string
		r    *harness.Runner
	}{
		{"parallel=4", &harness.Runner{Fuel: fuel, Parallel: 4}},
		{"parallel=8", &harness.Runner{Fuel: fuel, Parallel: 8}},
		{"parallel=1 streaming", &harness.Runner{Fuel: fuel, Parallel: 1, ChunkSize: 257}},
		{"parallel=4 streaming", &harness.Runner{Fuel: fuel, Parallel: 4, ChunkSize: 257}},
		{"parallel=8 streaming", &harness.Runner{Fuel: fuel, Parallel: 8, ChunkSize: 257}},
	}
	for _, v := range variants {
		got := artifactJSON(t, v.r)
		if !bytes.Equal(got, want) {
			t.Errorf("%s artifacts differ from serial run\nserial: %.200s\ngot:    %.200s",
				v.name, want, got)
		}
	}
}

// TestLabSingleFlight: concurrent requests for one benchmark must share a
// single build and return the same lab.
func TestLabSingleFlight(t *testing.T) {
	r := &harness.Runner{Fuel: 50_000, Parallel: 8}
	w := workload.Get("023.eqntott")
	const n = 8
	labs := make([]*harness.Lab, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := r.Lab(ctx, w)
			if err != nil {
				t.Error(err)
				return
			}
			labs[i] = l
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if labs[i] != labs[0] {
			t.Fatalf("lab %d is a different instance", i)
		}
	}
}

// TestLabCacheEviction: the cache keeps at most MaxResident labs but a
// re-request transparently rebuilds an evicted one.
func TestLabCacheEviction(t *testing.T) {
	r := &harness.Runner{Fuel: 50_000, MaxResident: 2}
	names := []string{"023.eqntott", "008.espresso", "026.compress"}
	first := make(map[string]*harness.Lab)
	for _, name := range names {
		l, err := r.Lab(ctx, workload.Get(name))
		if err != nil {
			t.Fatal(err)
		}
		first[name] = l
	}
	// The oldest lab was evicted; requesting it again must rebuild (a
	// fresh instance), and the result must still be usable.
	l, err := r.Lab(ctx, workload.Get(names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if l == first[names[0]] {
		t.Errorf("lab for %s not evicted with MaxResident=2", names[0])
	}
	if _, err := l.SimulateBatch(ctx, []pipeline.BatchSpec{
		{Config: harness.CompilerDual(), Flavors: l.HeurFlavors}}); err != nil {
		t.Fatal(err)
	}
	// The most recent lab is still cached.
	l3, err := r.Lab(ctx, workload.Get(names[2]))
	if err != nil {
		t.Fatal(err)
	}
	if l3 != first[names[2]] {
		t.Errorf("most-recent lab was evicted")
	}
}
