// elag-trace compiles a program, simulates it with the observability layer
// attached, and writes the run's artifacts: a Chrome trace_event JSON of
// the cycle-level event stream (open in Perfetto or chrome://tracing), a
// schema-versioned metrics JSON, and the per-PC load attribution table as
// CSV. A top-N "worst loads" report — the static loads the pipeline spends
// the most cycles waiting on, with their dominant forwarding-failure terms
// — is printed to stdout.
//
// Usage:
//
//	elag-trace [flags] file.{mc,s,bin} | workload:NAME
//
//	-config name   base | hw-pred | hw-early | hw-dual | compiler
//	-table N       prediction table entries (default 256)
//	-regs N        early-calculation registers (0 = the machine's default:
//	               16 for hw-early and hw-dual, 1 for compiler)
//	-fuel N        dynamic instruction budget (0 = the 200M default)
//	-from/-to N    record only events in the cycle window [from, to]
//	-limit N       cap recorded events (default 1e6; 0 = unlimited)
//	-o dir         output directory (default trace-out)
//	-top N         worst-loads report length (default 10)
//	-parallel N    GOMAXPROCS for the run
//	-chunk N       stream the trace in N-entry chunks (0 = the default
//	               size; bounded memory; artifacts are byte-identical at
//	               every setting)
//	-cpuprofile f  write a CPU profile
//	-memprofile f  write a heap profile at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"elag"
	"elag/cmd/internal/cli"
)

func main() {
	config := flag.String("config", "compiler", elag.ConfigNames)
	table := flag.Int("table", 256, "prediction table entries")
	regs := flag.Int("regs", 0, "early-calculation registers (0 = the machine's default: 16 for hw-early and hw-dual, 1 for compiler)")
	fuel := flag.Int64("fuel", 0, "dynamic instruction budget (0 = the 200M default)")
	from := flag.Int64("from", 0, "first cycle of the recorded window")
	to := flag.Int64("to", 0, "last cycle of the recorded window (0 = unbounded)")
	limit := flag.Int("limit", 1_000_000, "max recorded events (0 = unlimited)")
	outDir := flag.String("o", "trace-out", "output directory")
	top := flag.Int("top", 10, "worst-loads report length")
	perf := cli.PerfFlags()
	flag.Parse()
	perf.Start("elag-trace")
	defer perf.Stop()
	ctx := perf.Context()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: elag-trace [flags]", cli.InputKinds)
		flag.PrintDefaults()
		os.Exit(2)
	}
	p, err := cli.Load(flag.Arg(0))
	if err != nil {
		cli.Fatal("elag-trace", err)
	}
	cfg, err := elag.NamedConfig(*config, *table, *regs)
	if err != nil {
		cli.Fatal("elag-trace", err)
	}

	rec := &elag.TraceRecorder{FromCycle: *from, ToCycle: *to, Limit: *limit}
	ms, _, err := p.SimulateBatchContext(ctx,
		[]elag.BatchSpec{{Config: cfg, Sink: rec, PerPC: true}}, *fuel, perf.Chunk)
	if err != nil {
		perf.CheckContext(err)
		cli.Fatal("elag-trace", fmt.Errorf("simulate %s: %w", *config, err))
	}
	m := ms[0]

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		cli.Fatal("elag-trace", fmt.Errorf("create %s: %w", *outDir, err))
	}
	write := func(name string, fn func(*os.File) error) string {
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			cli.Fatal("elag-trace", err)
		}
		if err := fn(f); err != nil {
			f.Close()
			cli.Fatal("elag-trace", fmt.Errorf("write %s: %w", path, err))
		}
		if err := f.Close(); err != nil {
			cli.Fatal("elag-trace", fmt.Errorf("write %s: %w", path, err))
		}
		return path
	}
	tracePath := write("trace.json", func(f *os.File) error {
		return p.WriteChromeTrace(f, rec.Events)
	})
	metricsPath := write("metrics.json", func(f *os.File) error {
		return elag.WriteMetricsJSON(f, elag.NewMetricsDoc(flag.Arg(0), *config, m))
	})
	perpcPath := write("perpc.csv", func(f *os.File) error {
		return elag.WritePerPCCSV(f, m.PerPC)
	})

	fmt.Printf("program: %s   config: %s\n", flag.Arg(0), *config)
	fmt.Printf("cycles %d   IPC %.3f   avg load latency %.3f\n",
		m.Cycles, m.IPC(), m.AvgLoadLatency())
	fmt.Printf("events: %d recorded of %d emitted (%d dropped by -limit)\n",
		len(rec.Events), rec.Total, rec.Dropped)
	fmt.Printf("wrote %s (open in https://ui.perfetto.dev), %s, %s\n\n",
		tracePath, metricsPath, perpcPath)
	fmt.Printf("top %d loads by total effective latency:\n", *top)
	if err := elag.WriteWorstLoads(os.Stdout, m, *top); err != nil {
		cli.Fatal("elag-trace", err)
	}
}
