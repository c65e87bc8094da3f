package harness

import (
	"context"
	"fmt"
	"strings"

	"elag"
	"elag/internal/core"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// Table2Row reproduces one row of the paper's Table 2: load counts, the
// static and dynamic NT/PD/EC distribution under the compiler heuristics,
// and the unlimited-table prediction rates of the NT and PD loads.
type Table2Row struct {
	Name     string  `json:"name"`
	LoadsK   float64 `json:"loads_k"`   // dynamic loads, thousands (the paper reports millions)
	StaticNT float64 `json:"static_nt"` // percent
	StaticPD float64 `json:"static_pd"`
	StaticEC float64 `json:"static_ec"`
	DynNT    float64 `json:"dyn_nt"`
	DynPD    float64 `json:"dyn_pd"`
	DynEC    float64 `json:"dyn_ec"`
	RateNT   float64 `json:"rate_nt"` // percent of NT executions predicted correctly
	RatePD   float64 `json:"rate_pd"`
}

// Table2 computes the row for one prepared benchmark under a given
// classification (Table 2 uses the heuristics; Table 3 reuses this with the
// profile-reclassified classes).
func tableRow(l *Lab, c *core.Classification) Table2Row {
	nt, pd, ec := c.StaticShares()
	return Table2Row{
		Name:     l.W.Name,
		LoadsK:   float64(l.Profile.TotalLoads) / 1000,
		StaticNT: nt, StaticPD: pd, StaticEC: ec,
		DynNT:  l.Profile.DynamicShare(c, core.NT),
		DynPD:  l.Profile.DynamicShare(c, core.PD),
		DynEC:  l.Profile.DynamicShare(c, core.EC),
		RateNT: l.Profile.ClassRate(c, core.NT),
		RatePD: l.Profile.ClassRate(c, core.PD),
	}
}

// Table2 reproduces Table 2 over the SPEC-like suite.
func (r *Runner) Table2(ctx context.Context) ([]Table2Row, error) {
	benches := workload.BySuite(workload.SPEC)
	rows := make([]Table2Row, len(benches))
	err := r.forEachLabCached(ctx, "table2", nil, benches,
		func(i int) any { return &rows[i] },
		func(ctx context.Context, i int, l *Lab) error {
			rows[i] = tableRow(l, l.Heur)
			return nil
		})
	if err != nil {
		return nil, err
	}
	rows = append(rows, averageT2(rows))
	return rows, nil
}

func averageT2(rows []Table2Row) Table2Row {
	avg := Table2Row{Name: "average"}
	n := float64(len(rows))
	for _, x := range rows {
		avg.LoadsK += x.LoadsK / n
		avg.StaticNT += x.StaticNT / n
		avg.StaticPD += x.StaticPD / n
		avg.StaticEC += x.StaticEC / n
		avg.DynNT += x.DynNT / n
		avg.DynPD += x.DynPD / n
		avg.DynEC += x.DynEC / n
		avg.RateNT += x.RateNT / n
		avg.RatePD += x.RatePD / n
	}
	return avg
}

// FormatTable2 renders rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: load and prediction characteristics (compiler heuristics)\n")
	fmt.Fprintf(&b, "%-14s %9s | %6s %6s %6s | %6s %6s %6s | %7s %7s\n",
		"Benchmark", "Loads(k)", "sNT%", "sPD%", "sEC%", "dNT%", "dPD%", "dEC%", "NTrate", "PDrate")
	for _, x := range rows {
		fmt.Fprintf(&b, "%-14s %9.0f | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f | %7.2f %7.2f\n",
			x.Name, x.LoadsK, x.StaticNT, x.StaticPD, x.StaticEC,
			x.DynNT, x.DynPD, x.DynEC, x.RateNT, x.RatePD)
	}
	return b.String()
}

// Table3Row reproduces one row of Table 3: speedup and predictable-load
// statistics after profile-guided reclassification.
type Table3Row struct {
	Name     string  `json:"name"`
	Speedup  float64 `json:"speedup"`
	StaticPD float64 `json:"static_pd"`
	DynPD    float64 `json:"dyn_pd"`
	RateNT   float64 `json:"rate_nt"`
	RatePD   float64 `json:"rate_pd"`
}

// Table3 reproduces Table 3: the compiler-directed dual-path configuration
// (256-entry table, one R_addr) with address-profile reclassification.
func (r *Runner) Table3(ctx context.Context) ([]Table3Row, error) {
	benches := workload.BySuite(workload.SPEC)
	rows := make([]Table3Row, len(benches))
	err := r.forEachLabCached(ctx, "table3", nil, benches,
		func(i int) any { return &rows[i] },
		func(ctx context.Context, i int, l *Lab) error {
			sp, err := l.Speedups(ctx, []pipeline.BatchSpec{{Config: elag.CompilerDirectedConfig(), Flavors: l.ReclassFlavors}})
			if err != nil {
				return err
			}
			t := tableRow(l, l.Reclass)
			rows[i] = Table3Row{
				Name:     l.W.Name,
				Speedup:  sp[0],
				StaticPD: t.StaticPD,
				DynPD:    t.DynPD,
				RateNT:   t.RateNT,
				RatePD:   t.RatePD,
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	avg := Table3Row{Name: "average"}
	n := float64(len(rows))
	for _, x := range rows {
		avg.Speedup += x.Speedup / n
		avg.StaticPD += x.StaticPD / n
		avg.DynPD += x.DynPD / n
		avg.RateNT += x.RateNT / n
		avg.RatePD += x.RatePD / n
	}
	rows = append(rows, avg)
	return rows, nil
}

// FormatTable3 renders rows like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: profile-assisted classification (threshold 60%%)\n")
	fmt.Fprintf(&b, "%-14s %8s | %8s %8s | %7s %7s\n",
		"Benchmark", "Speedup", "sPD%", "dPD%", "NTrate", "PDrate")
	for _, x := range rows {
		fmt.Fprintf(&b, "%-14s %8.2f | %8.2f %8.2f | %7.2f %7.2f\n",
			x.Name, x.Speedup, x.StaticPD, x.DynPD, x.RateNT, x.RatePD)
	}
	return b.String()
}

// Table4Row reproduces one row of Table 4 (MediaBench).
type Table4Row struct {
	Table2Row
	Speedup float64 `json:"speedup"`
}

// Table4 reproduces Table 4: MediaBench characteristics and speedups under
// the compiler heuristics (no profiling).
func (r *Runner) Table4(ctx context.Context) ([]Table4Row, error) {
	benches := workload.BySuite(workload.Media)
	rows := make([]Table4Row, len(benches))
	err := r.forEachLabCached(ctx, "table4", nil, benches,
		func(i int) any { return &rows[i] },
		func(ctx context.Context, i int, l *Lab) error {
			sp, err := l.Speedups(ctx, []pipeline.BatchSpec{{Config: elag.CompilerDirectedConfig(), Flavors: l.HeurFlavors}})
			if err != nil {
				return err
			}
			rows[i] = Table4Row{Table2Row: tableRow(l, l.Heur), Speedup: sp[0]}
			return nil
		})
	if err != nil {
		return nil, err
	}
	avg := Table4Row{}
	var t2s []Table2Row
	for _, x := range rows {
		t2s = append(t2s, x.Table2Row)
		avg.Speedup += x.Speedup / float64(len(rows))
	}
	avg.Table2Row = averageT2(t2s)
	avg.Name = "average"
	rows = append(rows, avg)
	return rows, nil
}

// FormatTable4 renders rows like the paper's Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: MediaBench characteristics and speedup (compiler heuristics)\n")
	fmt.Fprintf(&b, "%-14s %9s | %6s %6s %6s | %6s %6s %6s | %7s %7s | %7s\n",
		"Benchmark", "Loads(k)", "sNT%", "sPD%", "sEC%", "dNT%", "dPD%", "dEC%", "NTrate", "PDrate", "Speedup")
	for _, x := range rows {
		fmt.Fprintf(&b, "%-14s %9.0f | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f | %7.2f %7.2f | %7.2f\n",
			x.Name, x.LoadsK, x.StaticNT, x.StaticPD, x.StaticEC,
			x.DynNT, x.DynPD, x.DynEC, x.RateNT, x.RatePD, x.Speedup)
	}
	return b.String()
}
