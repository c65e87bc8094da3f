// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5). Each benchmark runs the corresponding experiment over the
// workload suite and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's artifacts end to end. The rows/series themselves
// are printed by cmd/elag-bench; here the aggregate shape is attached to
// the benchmark output (speedups as "x", prediction rates as "%").
//
// Benchmarks use fuel-limited runs (2M instructions per benchmark program)
// so a full -bench=. sweep stays in the minutes range; cmd/elag-bench runs
// the programs to completion.
package elag_test

import (
	"context"
	"testing"

	"elag"
	"elag/internal/core"
	"elag/internal/harness"
	"elag/internal/profile"
	"elag/internal/workload"
)

// ctx is the no-deadline context the tests run under; cancellation paths
// have their own dedicated tests.
var ctx = context.Background()

const benchFuel = 2_000_000

func newRunner() *harness.Runner { return &harness.Runner{Fuel: benchFuel} }

// BenchmarkTable2 regenerates Table 2: static/dynamic NT/PD/EC load
// distribution under the compiler heuristics and the unlimited-table
// prediction rates of NT and PD loads, over the 12 SPEC-like programs.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		rows, err := r.Table2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.RatePD, "PDrate%")
		b.ReportMetric(avg.RateNT, "NTrate%")
		b.ReportMetric(avg.DynPD, "dynPD%")
	}
}

// BenchmarkTable3 regenerates Table 3: the compiler-directed configuration
// with profile-assisted load classification (60% threshold).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		rows, err := r.Table3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.Speedup, "speedup_x")
		b.ReportMetric(avg.DynPD, "dynPD%")
	}
}

// BenchmarkTable4 regenerates Table 4: MediaBench characteristics and
// speedups under the compiler heuristics.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		rows, err := r.Table4(ctx)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.Speedup, "speedup_x")
		b.ReportMetric(avg.RatePD, "PDrate%")
		b.ReportMetric(avg.DynPD, "dynPD%")
	}
}

// BenchmarkFigure5a regenerates Figure 5a: table-based prediction alone,
// 64/128/256 entries, hardware-only versus compiler-directed.
func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := newRunner().Figure5a(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			switch s.Label {
			case "hw-only 32":
				b.ReportMetric(s.Average, "hw32_x")
			case "compiler 32":
				b.ReportMetric(s.Average, "cc32_x")
			case "hw-only 8":
				b.ReportMetric(s.Average, "hw8_x")
			case "compiler 8":
				b.ReportMetric(s.Average, "cc8_x")
			}
		}
	}
}

// BenchmarkFigure5b regenerates Figure 5b: hardware-only early address
// calculation with 4, 8 and 16 cached registers.
func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := newRunner().Figure5b(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			switch s.Label {
			case "hw-early 1 regs":
				b.ReportMetric(s.Average, "regs1_x")
			case "hw-early 2 regs":
				b.ReportMetric(s.Average, "regs2_x")
			case "hw-early 4 regs":
				b.ReportMetric(s.Average, "regs4_x")
			}
		}
	}
}

// BenchmarkFigure5c regenerates Figure 5c: the dual-path comparison — the
// paper's headline result (compiler-directed 256-entry/1-register dual
// beats the larger hardware-only schemes; profiling adds more).
func BenchmarkFigure5c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := newRunner().Figure5c(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			switch s.Label {
			case "hw-dual":
				b.ReportMetric(s.Average, "hwdual_x")
			case "compiler dual":
				b.ReportMetric(s.Average, "ccdual_x")
			case "compiler dual+profile":
				b.ReportMetric(s.Average, "ccprof_x")
			}
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationSLoad compares the default kill-aware taint dataflow
// against the paper's literal additive S_load fixpoint: the additive
// variant misclassifies arithmetic-dependent loads as load-dependent when
// the register allocator reuses registers densely.
func BenchmarkAblationSLoad(b *testing.B) {
	w := workload.Get("008.espresso")
	for i := 0; i < b.N; i++ {
		var speedups [2]float64
		for k, o := range []elag.ClassifyOptions{{}, {AdditiveSLoad: true}} {
			p, err := elag.Build(w.Source, elag.BuildOptions{Classify: o})
			if err != nil {
				b.Fatal(err)
			}
			sp, err := elag.Speedup(p, elag.CompilerDirectedConfig(), benchFuel)
			if err != nil {
				b.Fatal(err)
			}
			speedups[k] = sp
		}
		b.ReportMetric(speedups[0], "taint_x")
		b.ReportMetric(speedups[1], "additive_x")
	}
}

// BenchmarkAblationECGroups sweeps the number of base-register groups the
// classifier hands to the early-calculation hardware (the paper reserves
// R_addr for one group; more groups model more addressing registers).
func BenchmarkAblationECGroups(b *testing.B) {
	w := workload.Get("147.vortex")
	for i := 0; i < b.N; i++ {
		for _, groups := range []int{1, 2, 4} {
			p, err := elag.Build(w.Source, elag.BuildOptions{
				Classify: elag.ClassifyOptions{MaxECGroups: groups},
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg, err := elag.NamedConfig("compiler", 256, groups)
			if err != nil {
				b.Fatal(err)
			}
			sp, err := elag.Speedup(p, cfg, benchFuel)
			if err != nil {
				b.Fatal(err)
			}
			switch groups {
			case 1:
				b.ReportMetric(sp, "g1_x")
			case 2:
				b.ReportMetric(sp, "g2_x")
			case 4:
				b.ReportMetric(sp, "g4_x")
			}
		}
	}
}

// BenchmarkAblationTableAssoc measures whether a set-associative prediction
// table buys anything over the paper's direct-mapped one at equal capacity.
func BenchmarkAblationTableAssoc(b *testing.B) {
	w := workload.Get("134.perl")
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, assoc := range []int{1, 4} {
			cfg := elag.CompilerDirectedConfig()
			cfg.Mechanisms = []elag.MechSpec{
				{Kind: "addrpred", Entries: 256, Assoc: assoc},
				{Kind: "earlycalc", Entries: 1},
			}
			sp, err := elag.Speedup(p, cfg, benchFuel)
			if err != nil {
				b.Fatal(err)
			}
			if assoc == 1 {
				b.ReportMetric(sp, "dm_x")
			} else {
				b.ReportMetric(sp, "a4_x")
			}
		}
	}
}

// --- Component micro-benchmarks (simulator throughput) ---

// BenchmarkSimulatorThroughput measures timing-model speed in simulated
// instructions per second over a representative program.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workload.Get("022.li")
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		m, _, err := p.Simulate(elag.CompilerDirectedConfig(), benchFuel)
		if err != nil {
			b.Fatal(err)
		}
		insts += m.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkEmulatorThroughput measures functional-emulation speed.
func BenchmarkEmulatorThroughput(b *testing.B) {
	w := workload.Get("023.eqntott")
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		res, err := p.Run(benchFuel)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.DynamicInsts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkCompiler measures front-end + optimizer + code generation +
// classification time over the whole workload suite.
func BenchmarkCompiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workload.All() {
			if _, err := elag.Build(w.Source, elag.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProfiler measures address-profiling speed (per-load stride
// machines over the dynamic load stream).
func BenchmarkProfiler(b *testing.B) {
	w := workload.Get("008.espresso")
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profile.Collect(p.Machine, benchFuel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifier measures the Section 4 heuristics alone (machine-CFG
// construction, loop analysis, taint dataflow, grouping).
func BenchmarkClassifier(b *testing.B) {
	var progs []*elag.Program
	for _, w := range workload.All() {
		p, err := elag.Build(w.Source, elag.BuildOptions{DisableClassify: true})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			core.Classify(p.Machine, core.Options{})
		}
	}
}

// BenchmarkEmbedded runs the Section 5.4 extension: the compiler-directed
// scheme (64-entry table + 1 register) versus the hardware-only dual
// (64-entry table + 8 registers) on an embedded-class 2-wide core.
func BenchmarkEmbedded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Embedded(ctx)
		if err != nil {
			b.Fatal(err)
		}
		avg := rows[len(rows)-1]
		b.ReportMetric(avg.CompilerSpeedup, "cc_x")
		b.ReportMetric(avg.HWDualSpeedup, "hwdual_x")
	}
}
