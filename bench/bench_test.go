package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	os.Exit(m.Run())
}

// TestToyRuns runs every workload at toy size, once untraced and once
// traced: both must report exactly the metrics BENCHMARK.json declares,
// fail nothing, and produce identical outputs (the traced run also checks
// that the layer-by-layer composition reproduces the public entry points'
// bytes).
func TestToyRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range decl.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		want[true][m.Name] = m.Unit
	}
	expected, err := parseExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workloads {
		var digests []map[string]string
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 0, trace: traced, size: "toy"}
			res, err := runWorkload(context.Background(), w, o, expected[w.name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v",
					w.name, traced, keys(got), keys(want[traced]))
			}
			digests = append(digests, res.Digests)
		}
		if !reflect.DeepEqual(digests[0], digests[1]) {
			t.Errorf("%s: untraced and traced runs produced different outputs", w.name)
		}
	}
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
