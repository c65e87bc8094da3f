package harness

import (
	"context"
	"fmt"
	"strings"

	"elag"
	"elag/internal/isa"
	"elag/internal/mech"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// FigureSeries is one labelled series of per-benchmark speedups (one group
// of bars in Figure 5).
type FigureSeries struct {
	Label    string             `json:"label"`
	Speedups map[string]float64 `json:"speedups"` // benchmark -> speedup
	Average  float64            `json:"average"`
}

// Figure is a reproduced figure: several series over the same benchmarks.
type Figure struct {
	Title      string         `json:"title"`
	Benchmarks []string       `json:"benchmarks"`
	Series     []FigureSeries `json:"series"`
}

// seriesDef is one figure series, declared as data: a label, the hardware
// configuration, and the flavour overlay drawn from the lab (nil for the
// program's baked-in flavours). Declarative series let figure() replay a
// benchmark's entire column of configurations in one batched pass.
type seriesDef struct {
	label string
	cfg   pipeline.Config
	flav  func(l *Lab) isa.FlavorOverlay
}

func (s *seriesDef) spec(l *Lab) pipeline.BatchSpec {
	sp := pipeline.BatchSpec{Config: s.cfg}
	if s.flav != nil {
		sp.Flavors = s.flav(l)
	}
	return sp
}

// figureColumn is one benchmark's cacheable unit of a figure: its
// speedups in series order. The row key carries the series labels, so a
// series change (labels, count, order) misses cleanly.
type figureColumn struct {
	Speedups []float64 `json:"speedups"`
}

func (r *Runner) figure(ctx context.Context, exp, title string, suite workload.Suite, series []seriesDef) (*Figure, error) {
	fig := &Figure{Title: title}
	benches := workload.BySuite(suite)
	for _, w := range benches {
		fig.Benchmarks = append(fig.Benchmarks, w.Name)
	}
	labels := make([]string, len(series))
	for i, s := range series {
		fig.Series = append(fig.Series, FigureSeries{Label: s.label, Speedups: map[string]float64{}})
		labels[i] = s.label
	}
	// One benchmark's column of cells is a single unit of work (and of
	// caching): its lab is built once and all series configurations
	// advance through one streamed emulation in a single batched pass.
	cols := make([]figureColumn, len(benches))
	err := r.forEachLabCached(ctx, exp, labels, benches,
		func(i int) any { return &cols[i] },
		func(ctx context.Context, bi int, l *Lab) error {
			specs := make([]pipeline.BatchSpec, len(series))
			for i := range series {
				specs[i] = series[i].spec(l)
			}
			sp, err := l.Speedups(ctx, specs)
			if err != nil {
				return err
			}
			cols[bi].Speedups = sp
			r.logf("%s done", l.W.Name)
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Aggregate in benchmark order, off the worker pool: averages sum in
	// a fixed order, so they are bit-identical at every worker count.
	for bi, w := range benches {
		if len(cols[bi].Speedups) != len(series) {
			return nil, fmt.Errorf("%s: cached column has %d series, want %d (stale artifact schema?)",
				w.Name, len(cols[bi].Speedups), len(series))
		}
		for i, sp := range cols[bi].Speedups {
			fig.Series[i].Speedups[w.Name] = sp
			fig.Series[i].Average += sp / float64(len(benches))
		}
	}
	return fig, nil
}

// Figure5aSizes are the prediction-table sizes swept by Figure 5a. The
// paper sweeps 64/128/256 entries against benchmarks with thousands of
// static loads; our kernels have tens of hot static loads, so the
// equivalent contention regime — the quantity the figure is about — sits
// at 8/16/32 entries. The sweep is scaled accordingly (see EXPERIMENTS.md).
var Figure5aSizes = []int{8, 16, 32}

// Figure5a reproduces Figure 5a: speedup from table-based prediction
// alone, across table sizes, with and without compiler support. With
// compiler support only PD-classified loads are allocated entries; without
// it, every load competes for the table.
func (r *Runner) Figure5a(ctx context.Context) (*Figure, error) {
	var series []seriesDef
	for _, size := range Figure5aSizes {
		series = append(series,
			seriesDef{label: fmt.Sprintf("hw-only %d", size), cfg: pipeline.SelAllPredict.Config(size, 0)},
			// Table only: ld_e loads behave like normal loads.
			seriesDef{label: fmt.Sprintf("compiler %d", size), cfg: pipeline.SelCompiler.Config(size, 0),
				flav: (*Lab).heurFlavors},
		)
	}
	return r.figure(ctx, "fig5a", "Figure 5a: table-based address prediction only (scaled sizes)",
		workload.SPEC, series)
}

// Figure5bSizes are the register-cache sizes swept by Figure 5b, scaled
// like Figure5aSizes: the paper's 4/8/16 registers against its large
// benchmarks corresponds to 1/2/4 against our kernels' handful of hot base
// registers.
var Figure5bSizes = []int{1, 2, 4}

// Figure5b reproduces Figure 5b: speedup from hardware-only early address
// calculation across register-cache sizes.
func (r *Runner) Figure5b(ctx context.Context) (*Figure, error) {
	var series []seriesDef
	for _, n := range Figure5bSizes {
		series = append(series, seriesDef{
			label: fmt.Sprintf("hw-early %d regs", n),
			cfg:   pipeline.SelAllEarly.Config(0, n),
		})
	}
	return r.figure(ctx, "fig5b", "Figure 5b: early address calculation only (scaled sizes)",
		workload.SPEC, series)
}

// Figure5c reproduces Figure 5c: the largest hardware-only configurations
// against the dual-path scheme without compiler support, with compiler
// heuristics, and with heuristics plus address profiling.
func (r *Runner) Figure5c(ctx context.Context) (*Figure, error) {
	series := []seriesDef{
		{label: "hw-predict 256", cfg: pipeline.SelAllPredict.Config(256, 0)},
		{label: "hw-early 16", cfg: pipeline.SelAllEarly.Config(0, 16)},
		{label: "hw-dual", cfg: pipeline.SelHWDual.Config(256, 16)},
		{label: "compiler dual", cfg: elag.CompilerDirectedConfig(), flav: (*Lab).heurFlavors},
		{label: "compiler dual+profile", cfg: elag.CompilerDirectedConfig(), flav: (*Lab).reclassFlavors},
	}
	return r.figure(ctx, "fig5c", "Figure 5c: dual-path early address generation", workload.SPEC, series)
}

// FigureMech is the mechanism-layer extension figure: each assist
// mechanism (one grid column per pipeline.AssistSpecs entry) against the
// paper's hardware-only predictor and its compiler-directed proposal, all
// as speedups over the same base architecture. The assist mechanisms need
// no compiler support — they drive every load — so they bracket how much
// of the paper's win is the table geometry versus the classification.
func (r *Runner) FigureMech(ctx context.Context) (*Figure, error) {
	series := []seriesDef{
		{label: "hw-predict 256", cfg: pipeline.SelAllPredict.Config(256, 0)},
	}
	for _, sp := range pipeline.AssistSpecs {
		series = append(series, seriesDef{label: sp.String(),
			cfg: pipeline.Config{Mechanisms: []mech.Spec{sp}}})
	}
	series = append(series,
		seriesDef{label: "compiler dual", cfg: elag.CompilerDirectedConfig(), flav: (*Lab).heurFlavors})
	return r.figure(ctx, "figmech",
		"Figure M: pluggable load-acceleration mechanisms (speedup over base)",
		workload.SPEC, series)
}

// FormatFigure renders a figure as an aligned text table (benchmarks down,
// series across), mirroring the paper's grouped bars.
func FormatFigure(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-14s", "Benchmark")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %*s", labelWidth(s.Label), s.Label)
	}
	fmt.Fprintln(&b)
	for _, name := range f.Benchmarks {
		fmt.Fprintf(&b, "%-14s", name)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %*.2f", labelWidth(s.Label), s.Speedups[name])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-14s", "average")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %*.2f", labelWidth(s.Label), s.Average)
	}
	fmt.Fprintln(&b)
	return b.String()
}

func labelWidth(label string) int {
	if len(label) < 8 {
		return 8
	}
	return len(label)
}
