package workload_test

import (
	"testing"

	"elag"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// maxDynamicInsts bounds each kernel's run length so the full experiment
// harness stays tractable (25 programs x ~12 configurations).
const maxDynamicInsts = 3_000_000

func TestRegistryShape(t *testing.T) {
	spec := workload.BySuite(workload.SPEC)
	media := workload.BySuite(workload.Media)
	if len(spec) != 12 {
		t.Errorf("SPEC suite has %d programs, want 12 (Table 2)", len(spec))
	}
	if len(media) != 13 {
		t.Errorf("MediaBench suite has %d programs, want 13 (Table 4)", len(media))
	}
	if len(workload.All()) != len(spec)+len(media) {
		t.Errorf("All() inconsistent with suites")
	}
	seen := map[string]bool{}
	for _, w := range workload.All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if w.About == "" {
			t.Errorf("%s: missing About", w.Name)
		}
		if workload.Get(w.Name) != w {
			t.Errorf("Get(%q) did not return the registered workload", w.Name)
		}
	}
	if workload.Get("no-such-benchmark") != nil {
		t.Errorf("Get on unknown name should return nil")
	}
}

func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := elag.Build(w.Source, elag.BuildOptions{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := p.Run(maxDynamicInsts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.ExitCode != 0 {
				t.Errorf("exit code %d, want 0", res.ExitCode)
			}
			if len(res.IntOut) == 0 {
				t.Errorf("no output produced")
			}
			if res.DynamicInsts < 20_000 {
				t.Errorf("only %d dynamic instructions; too small to warm predictors",
					res.DynamicInsts)
			}
			if res.DynamicLoads*100/res.DynamicInsts < 5 {
				t.Errorf("load density %.1f%% suspiciously low",
					float64(res.DynamicLoads)*100/float64(res.DynamicInsts))
			}
			t.Logf("%s: insts=%d loads=%d (%.1f%%) out=%v classes=%s",
				w.Name, res.DynamicInsts, res.DynamicLoads,
				float64(res.DynamicLoads)*100/float64(res.DynamicInsts),
				res.IntOut, p.Classes)
		})
	}
}

// TestArchitecturalEquivalence checks that speculation never changes
// results: every configuration must produce identical observable output.
func TestArchitecturalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs several timing configs per workload")
	}
	for _, w := range workload.All() {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", w.Name, err)
		}
		var golden string
		// Every machine, with a 256-entry table where it has one.
		for _, m := range pipeline.Machines {
			_, res, err := p.Simulate(m.Select.Config(256, m.Regs), maxDynamicInsts)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, m.Name, err)
			}
			if golden == "" {
				golden = res.Output()
			} else if res.Output() != golden {
				t.Errorf("%s/%s: output diverged:\n got %s\nwant %s",
					w.Name, m.Name, res.Output(), golden)
			}
		}
	}
}
