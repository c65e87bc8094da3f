package harness_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"elag"
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
// float averages and all — at every parallelism level and stream chunk
// size. Run under -race this also proves the fan-out is data-race-free.
func TestParallelDeterminism(t *testing.T) {
	fuel := int64(120_000)
	if testing.Short() {
		fuel = 40_000
	}
	want := artifactJSON(t, &harness.Runner{Fuel: fuel, Parallel: 1})
	for _, parallel := range []int{1, 4, 8} {
		for _, chunk := range []int{0, 257} {
			if parallel == 1 && chunk == 0 {
				continue // the reference run
			}
			got := artifactJSON(t, &harness.Runner{Fuel: fuel, Parallel: parallel, ChunkSize: chunk})
			if !bytes.Equal(got, want) {
				t.Errorf("parallel=%d chunk=%d artifacts differ from serial run\nserial: %.200s\ngot:    %.200s",
					parallel, chunk, want, got)
			}
		}
	}
}

// TestLabSingleFlight: concurrent requests for one benchmark must share a
// single build and return the same lab, and concurrent speedup passes
// over that lab — racing to measure its base cycle count — must agree.
func TestLabSingleFlight(t *testing.T) {
	r := &harness.Runner{Fuel: 50_000, Parallel: 8}
	w := workload.Get("023.eqntott")
	const n = 8
	labs := make([]*harness.Lab, n)
	speedups := make([]float64, n)
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
			sp, err := l.Speedups(ctx, []pipeline.BatchSpec{{Config: elag.CompilerDirectedConfig(), Flavors: l.HeurFlavors}})
			if err != nil {
				t.Error(err)
				return
			}
			speedups[i] = sp[0]
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if labs[i] != labs[0] {
			t.Fatalf("lab %d is a different instance", i)
		}
		if speedups[i] != speedups[0] {
			t.Fatalf("speedup %d = %v, first = %v", i, speedups[i], speedups[0])
		}
	}
}
