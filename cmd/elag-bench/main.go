// elag-bench regenerates the paper's evaluation artifacts — Tables 2, 3
// and 4, Figures 5a, 5b and 5c and the embedded-core study — over the
// built-in workload suite.
//
// Usage:
//
//	elag-bench [flags]
//
//	-exp name     all|table2|table3|fig5a|fig5b|fig5c|table4|embedded|figmech
//	              (default all: every experiment in that order but figmech,
//	              the mechanism-layer extension figure, which runs only when
//	              named; an unknown name exits 2 in every mode)
//	-fuel N       per-benchmark dynamic instruction budget (0 = the 200M
//	              default, used for reported results)
//	-q            suppress progress logging
//	-csv dir      write each artifact -exp selects as NAME.csv into dir
//	              (for plotting); embedded has no CSV form
//	-json file    write the experiments -exp selects as one schema-versioned
//	              JSON document ("-" for stdout)
//	-parallel N   fan benchmarks across N workers and set GOMAXPROCS to N,
//	              which also bounds each batch's replay lanes (results are
//	              byte-identical at every setting; wall time is reported on
//	              stderr)
//	-chunk N      stream traces in N-entry chunks (0 = the default size;
//	              peak trace memory O(N) per worker; artifacts are
//	              byte-identical at every setting)
//	-cpuprofile f write a CPU profile
//	-memprofile f write a heap profile at exit
//
// elag-bench keeps no result cache: every run computes its grids.
// elag-serve caches a grid job's whole result, per job.
//
// Performance is tracked by the repository benchmark in bench/ (see
// bench/README.md), not by this tool.
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
)

func main() {
	names := []string{"all"}
	for _, e := range harness.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", strings.Join(names, "|"))
	fuel := flag.Int64("fuel", 0, "per-benchmark instruction budget (0 = the 200M default)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	csvDir := flag.String("csv", "", "write a CSV for each artifact -exp selects into this directory")
	jsonPath := flag.String("json", "", `write the -exp artifacts as one JSON document to this file ("-" = stdout)`)
	perf := cli.PerfFlags(true)
	flag.Parse()

	sel, err := harness.SelectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "elag-bench: %v\n", err)
		os.Exit(2)
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
		ChunkSize: perf.Chunk}

	if *jsonPath != "" {
		doc, err := r.DocumentExp(ctx, *exp)
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
		err := r.ExportCSV(ctx, *exp, func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*csvDir, name))
		})
		check("csv", err)
		fmt.Fprintf(os.Stderr, "CSVs written to %s\n", *csvDir)
		return
	}

	for _, e := range sel {
		if !*quiet && len(sel) > 1 {
			fmt.Fprintf(os.Stderr, "== %s ==\n", strings.ToUpper(e.Name))
		}
		doc, err := r.DocumentExp(ctx, e.Name)
		check(e.Name, err)
		fmt.Print(e.Text(doc))
		fmt.Println()
	}
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
