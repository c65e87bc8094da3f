// elag-bench regenerates the paper's evaluation artifacts — Tables 2, 3
// and 4 and Figures 5a, 5b and 5c — over the built-in workload suite.
//
// Usage:
//
//	elag-bench [flags]
//
//	-exp name     table2|table3|table4|fig5a|fig5b|fig5c|embedded|figmech|all
//	              (default all; figmech — the mechanism-layer extension
//	              figure — runs only when named explicitly)
//	-fuel N       per-benchmark dynamic instruction budget (0 = run programs
//	              to completion, the default used for reported results)
//	-q            suppress progress logging
//	-csv dir      write every artifact as CSV into dir (for plotting)
//	-json file    write every artifact as one schema-versioned JSON document
//	              ("-" for stdout), for the repo's BENCH_*.json trajectory
//	-parallel N   fan benchmarks across N workers (results are byte-identical
//	              at every setting; wall time is reported on stderr)
//	-chunk N      stream traces in N-entry chunks instead of materializing
//	              them (peak trace memory O(N) per worker; artifacts are
//	              byte-identical at every setting)
//	-nobatch      replay each grid cell in its own pass instead of batching
//	              all configurations through one pass (for wall-time A/B;
//	              artifacts are byte-identical either way)
//	-cache-dir d  reuse per-row grid results from a content-addressed store
//	              (default $ELAG_CACHE_DIR; the same store elag-serve and
//	              elag-sim share, so a prior run — any tool's — skips rows)
//	-nocache      ignore -cache-dir / $ELAG_CACHE_DIR
//	-cpuprofile f write a CPU profile
//	-memprofile f write a heap profile at exit
//	-replaybench f  run the trace-replay microbenchmarks and write the
//	              elag-replaybench/v4 JSON document ("-" for stdout)
//	-compilebench f  compile every workload through the default pipeline and
//	              write the elag-compilebench/v1 JSON document (per-workload
//	              wall time + per-pass breakdown; "-" for stdout)
//	-reps N       repetitions per workload for -compilebench, reporting the
//	              fastest (default 5)
//	-servebench f run each service-path job cold (empty result cache) and
//	              warm (fully cached) through an in-process elag-serve and
//	              write the elag-servebench/v1 JSON document ("-" for
//	              stdout)
//
// Perf-regression gate:
//
//	elag-bench -diff old.json new.json
//
// compares two bench documents of the same schema (elag-replaybench/v4,
// elag-compilebench/v1, or elag-servebench/v1) entry by entry and exits
// nonzero when any metric regressed by more than -diff-threshold (default
// 0.15 = 15%). Throughput metrics are polarity-aware: minst_per_sec going
// DOWN is the regression. CI runs this against the checked-in
// BENCH_replay.json / BENCH_compile.json / BENCH_serve.json baselines.
// Replay and serve documents must agree on fuel — costs from different
// budgets are not comparable, and the diff refuses to pretend they are.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"elag/cmd/internal/cli"
	"elag/internal/harness"
	"elag/internal/serve"
)

func main() {
	exp := flag.String("exp", "all", "table2|table3|table4|fig5a|fig5b|fig5c|embedded|figmech|all")
	fuel := flag.Int64("fuel", 0, "per-benchmark instruction budget (0 = unlimited)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	csvDir := flag.String("csv", "", "also write CSVs for every artifact into this directory")
	jsonPath := flag.String("json", "", `write all artifacts as one JSON document to this file ("-" = stdout)`)
	replayPath := flag.String("replaybench", "", `run the replay microbenchmarks, write JSON to this file ("-" = stdout)`)
	compilePath := flag.String("compilebench", "", `run the compile benchmark, write JSON to this file ("-" = stdout)`)
	servePath := flag.String("servebench", "", `run the service-path cache benchmark, write JSON to this file ("-" = stdout)`)
	cacheOpts := cli.CacheFlags()
	reps := flag.Int("reps", 5, "repetitions per workload for -compilebench (fastest wins)")
	noBatch := flag.Bool("nobatch", false, "replay each grid cell in its own pass (disables batched replay)")
	diff := flag.Bool("diff", false, "compare two bench JSON documents: elag-bench -diff old.json new.json")
	diffThreshold := flag.Float64("diff-threshold", 0.15, "relative regression bound for -diff (0.15 = 15%)")
	perf := cli.PerfFlags()
	flag.Parse()

	if *diff {
		// The diff gate never runs benchmarks: it only reads the two
		// documents, so it exits before the perf harness spins up.
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "elag-bench: -diff needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		rep, err := harness.BenchDiffFiles(flag.Arg(0), flag.Arg(1), *diffThreshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elag-bench: -diff: %v\n", err)
			os.Exit(2)
		}
		if harness.WriteDiffReport(os.Stdout, rep) > 0 {
			os.Exit(1)
		}
		return
	}

	perf.Start("elag-bench")
	defer perf.Stop()
	ctx := perf.Context()
	checkPerf = perf

	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	r := &harness.Runner{Fuel: *fuel, Log: logw, Parallel: perf.Parallel,
		ChunkSize: perf.Chunk, NoBatch: *noBatch,
		Artifacts: cacheOpts.Open("elag-bench")}

	if *servePath != "" {
		// The serve benchmark provisions its own in-memory stores (one
		// fresh per entry — cold must mean cold), so the Runner above and
		// -cache-dir do not participate.
		doc, err := serve.RunServeBench(ctx, *fuel)
		check("servebench", err)
		out := os.Stdout
		if *servePath != "-" {
			f, err := os.Create(*servePath)
			if err != nil {
				check("servebench", fmt.Errorf("create %s: %w", *servePath, err))
			}
			out = f
		}
		check("servebench", harness.WriteServeBenchJSON(out, doc))
		if out != os.Stdout {
			check("servebench", out.Close())
			fmt.Fprintf(os.Stderr, "serve benchmark written to %s\n", *servePath)
		}
		return
	}

	if *replayPath != "" {
		doc, err := r.ReplayBench(ctx)
		check("replaybench", err)
		out := os.Stdout
		if *replayPath != "-" {
			f, err := os.Create(*replayPath)
			if err != nil {
				check("replaybench", fmt.Errorf("create %s: %w", *replayPath, err))
			}
			out = f
		}
		check("replaybench", harness.WriteReplayBenchJSON(out, doc))
		if out != os.Stdout {
			check("replaybench", out.Close())
			fmt.Fprintf(os.Stderr, "replay benchmark written to %s\n", *replayPath)
		}
		return
	}

	if *compilePath != "" {
		doc, err := r.CompileBench(ctx, *reps)
		check("compilebench", err)
		out := os.Stdout
		if *compilePath != "-" {
			f, err := os.Create(*compilePath)
			if err != nil {
				check("compilebench", fmt.Errorf("create %s: %w", *compilePath, err))
			}
			out = f
		}
		check("compilebench", harness.WriteCompileBenchJSON(out, doc))
		if out != os.Stdout {
			check("compilebench", out.Close())
			fmt.Fprintf(os.Stderr, "compile benchmark written to %s\n", *compilePath)
		}
		return
	}

	if *jsonPath != "" {
		doc, err := r.Document(ctx)
		check("json", err)
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				check("json", fmt.Errorf("create %s: %w", *jsonPath, err))
			}
			out = f
		}
		check("json", harness.WriteBenchJSON(out, doc))
		if out != os.Stdout {
			check("json", out.Close())
			fmt.Fprintf(os.Stderr, "JSON document written to %s\n", *jsonPath)
		}
		return
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			check("csv", fmt.Errorf("create %s: %w", *csvDir, err))
		}
		err := r.ExportCSV(ctx, func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*csvDir, name))
		})
		check("csv", err)
		fmt.Fprintf(os.Stderr, "CSVs written to %s\n", *csvDir)
		return
	}

	run := func(name string) {
		switch name {
		case "table2":
			rows, err := r.Table2(ctx)
			check("table2", err)
			fmt.Print(harness.FormatTable2(rows))
		case "table3":
			rows, err := r.Table3(ctx)
			check("table3", err)
			fmt.Print(harness.FormatTable3(rows))
		case "table4":
			rows, err := r.Table4(ctx)
			check("table4", err)
			fmt.Print(harness.FormatTable4(rows))
		case "fig5a":
			fig, err := r.Figure5a(ctx)
			check("fig5a", err)
			fmt.Print(harness.FormatFigure(fig))
		case "fig5b":
			fig, err := r.Figure5b(ctx)
			check("fig5b", err)
			fmt.Print(harness.FormatFigure(fig))
		case "fig5c":
			fig, err := r.Figure5c(ctx)
			check("fig5c", err)
			fmt.Print(harness.FormatFigure(fig))
		case "embedded":
			rows, err := r.Embedded(ctx)
			check("embedded", err)
			fmt.Print(harness.FormatEmbedded(rows))
		case "figmech":
			fig, err := r.FigureMech(ctx)
			check("figmech", err)
			fmt.Print(harness.FormatFigure(fig))
		default:
			fmt.Fprintf(os.Stderr, "elag-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "table3", "fig5a", "fig5b", "fig5c", "table4", "embedded"} {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "== %s ==\n", strings.ToUpper(name))
			}
			run(name)
		}
		return
	}
	run(*exp)
}

// checkPerf lets check report deadline/interrupt outcomes distinctly; set
// once in main before any work runs.
var checkPerf *cli.Perf

func check(what string, err error) {
	if err != nil {
		if checkPerf != nil {
			checkPerf.CheckContext(err)
		}
		fmt.Fprintf(os.Stderr, "elag-bench: %s: %v\n", what, err)
		os.Exit(1)
	}
}
