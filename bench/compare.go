package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkDecl is the part of BENCHMARK.json -compare reads.
type benchmarkDecl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareDirs compares two sets of untraced run documents, workload by
// workload and metric by metric, and prints one verdict for each:
//
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: either side's spread (quartile distance over median) is
//     wider than the bound, and B does not beat A on every run;
//   - agree: otherwise.
//
// It fails when any pairing regressed.
func compareDirs(w io.Writer, declPath, dirA, dirB string) error {
	data, err := os.ReadFile(declPath)
	if err != nil {
		return err
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", declPath, err)
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", dirA, dirB)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-14s %-12s %5s %-32s %5s %-32s %8s %8s %6s  %s\n",
		"workload", "metric", "n(A)", "A median [q1, q3]", "n(B)", "B median [q1, q3]", "spread", "change", "bound", "verdict")
	regressed := 0
	for _, name := range names {
		for _, m := range decl.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			spread := max(relative(a3-a1, ma), relative(b3-b1, mb))
			worse := relative(mb-ma, ma) // positive: B is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case spread > m.Bound && !allBetter(va, vb, m.Better == "higher"):
				verdict = "unresolved"
			case spread <= m.Bound && worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-12s %5d %-32s %5d %-32s %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				name, m.Name, len(va), spreadString(ma, a1, a3), len(vb), spreadString(mb, b1, b3),
				100*spread, 100*relative(mb-ma, ma), 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload × metric pairings regressed", regressed)
	}
	return nil
}

// loadRuns reads every untraced run document in dir, grouped by workload.
func loadRuns(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[string][]*result{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			runs[r.Workload] = append(runs[r.Workload], &r)
		}
	}
	return runs, nil
}

func values(runs []*result, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func relative(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / base
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}

func spreadString(m, q1, q3 float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", m, q1, q3)
}
