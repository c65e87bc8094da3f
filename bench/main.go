// Command bench is the repository benchmark. It drives four workloads
// through the entry points users call — harness.Runner, elag.Build,
// Program.SimulateBatchContext and serve.Server.Submit — checks every
// output against bench/expected.json, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output. README.md describes the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
//	bash bench/run.sh -compare DIR_A DIR_B
//
// With no -workload every workload runs in turn.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

// expectedPath is where -update-expected writes, relative to the
// repository root.
const expectedPath = "bench/expected.json"

// setupChildEnv, when set in the environment, makes the process a set-up
// probe: it sets up the named workload, reports readiness and exits.
const setupChildEnv = "ELAG_BENCH_SETUP"

// setupProbes is how many set-ups one run times for setup_s.
const setupProbes = 25

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "grid-all, sim-all, serve-mix or compile-suite (empty runs all four)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measurement time per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced rounds instead of end-to-end metrics")
	out := fs.String("out", "", "write the run document (and the spans of a traced run) into this directory")
	compare := fs.Bool("compare", false, "compare two directories of run documents: -compare A B")
	update := fs.Bool("update-expected", false, "record this run's output digests in "+expectedPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories")
			return 2
		}
		if err := compareDirs(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	defs := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{w}
	}
	expected, err := parseExpected(expectedJSON)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range defs {
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, size: "full"}
		res, err := runWorkload(context.Background(), w, o, expected[w.name])
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.report(stderr)
		if *out != "" {
			if err := res.write(*out); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		if *update {
			if err := updateExpected(w.name, res.Digests); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res.line())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	size    string // key of sizesByName
}

// metric is one reported value with how it summarizes its samples.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Stat  string  `json:"stat"`
}

// result is one run's document.
type result struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      env     `json:"env"`
	// Scale is the run's median conversion from this host's seconds to
	// reference-speed seconds (calibrate.go); reported times are scaled by
	// the calibration around each of them, the raw round times below are
	// not scaled.
	Scale     float64           `json:"scale"`
	Rounds    []float64         `json:"rounds_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    []layerRow        `json:"layers,omitempty"`
	Digests   map[string]string `json:"digests"`

	spans []span
}

// runWorkload sets the workload up, then runs rounds — at least two —
// until another round of the median length would overrun o.seconds. A
// traced run alternates untraced and traced rounds, so the trace overhead
// is measured in the same run. Every time is scaled to reference speed by
// the calibration taken around it (calibrate.go), and round times leave
// out the calibration inside them.
func runWorkload(ctx context.Context, w workloadDef, o options, want map[string]string) (*result, error) {
	sz := sizesByName[o.size]
	var setups []interval
	if !o.trace {
		var err error
		if setups, err = probeSetup(w.name, o); err != nil {
			return nil, err
		}
	}
	inst, err := w.setup(o.seed, sz)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()

	rec := newRecorder(want)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	type round struct {
		secs   float64 // wall time less calibration
		iv     interval
		traced bool
	}
	var rounds []round
	var raw, rss []float64
	start := time.Now()
	rec.cal.measure()
	for i := 0; ; i++ {
		var rt *tracer
		if i%2 == 1 {
			rt = tr
		}
		// Each round starts from a heap returned to the OS, so its peak
		// resident set is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		spent, t0 := rec.cal.timeSpent(), time.Now()
		if err := inst.round(ctx, rec, rt); err != nil {
			return nil, err
		}
		t1 := time.Now()
		d := (t1.Sub(t0) - (rec.cal.timeSpent() - spent)).Seconds()
		rss = append(rss, peakRSSMB())
		raw = append(raw, d)
		rounds = append(rounds, round{d, interval{t0, t1}, rt != nil})
		rec.tick()
		if len(rounds) >= 2 && time.Since(start).Seconds()+median(raw) > o.seconds {
			break
		}
	}
	rec.cal.measure()
	if v, ok := inst.(verifier); ok {
		v.verify(rec)
	}

	var plain, traced []float64
	for _, r := range rounds {
		secs := r.secs * rec.cal.scaleAt(r.iv.start, r.iv.end)
		if r.traced {
			traced = append(traced, secs)
		} else {
			plain = append(plain, secs)
		}
	}
	scale := rec.cal.scale()
	res := &result{Schema: "elag-benchmark-run/v1", Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Env: stamp(), Scale: scale, Rounds: raw, Attempted: rec.attempted, Failed: rec.failed,
		Failures: rec.failures, Digests: rec.got, Metrics: map[string]metric{}}
	res.Correct = rec.failed == 0 && rec.attempted > 0
	if !o.trace {
		ops := rec.cal.scaled(rec.ops)
		for i := range ops {
			ops[i] *= 1000
		}
		res.Metrics["setup_s"] = metric{median(rec.cal.scaled(setups)), "s", len(setups), "median"}
		res.Metrics["round_s"] = metric{median(plain), "s", len(plain), "median"}
		res.Metrics["op_ms_p50"] = metric{quantile(ops, 0.5), "ms", len(ops), "p50"}
		res.Metrics["op_ms_p90"] = metric{quantile(ops, 0.9), "ms", len(ops), "p90"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB", len(rss), "median of round peaks"}
		return res, nil
	}
	overhead := median(traced)/median(plain) - 1
	units := map[string]string{}
	for _, d := range perLayerMetrics {
		units[d.name] = d.unit
	}
	for name, v := range tr.perLayer(overhead, scale) {
		res.Metrics[name] = metric{v, units[name], len(traced), "traced rounds"}
	}
	res.Layers = tr.table()
	res.spans = tr.spans
	return res, nil
}

// probeSetup times o's set-up in fresh processes: each probe re-executes
// this binary, which sets the workload up and reports readiness, so the
// time includes process start and package initialization — everything a
// user pays before the first op.
func probeSetup(name string, o options) ([]interval, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []interval
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %s", setupChildEnv, name, o.seed, o.size))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		ready := time.Now()
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("setup probe: no readiness line (%v)", rerr)
		}
		samples = append(samples, interval{t0, ready})
	}
	return samples, nil
}

// setupChild is the probe side of probeSetup.
func setupChild(spec string) int {
	var name, size string
	var seed int64
	if _, err := fmt.Sscan(spec, &name, &seed, &size); err != nil {
		fmt.Fprintln(os.Stderr, "bench: setup probe:", err)
		return 2
	}
	w, ok := lookupWorkload(name)
	sz, okSize := sizesByName[size]
	if !ok || !okSize {
		fmt.Fprintf(os.Stderr, "bench: setup probe: bad spec %q\n", spec)
		return 2
	}
	inst, err := w.setup(seed, sz)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: setup probe:", err)
		return 1
	}
	fmt.Println("ready")
	inst.close()
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueUnits `json:"metrics"`
}

type valueUnits struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]valueUnits{}}
	for name, m := range r.Metrics {
		l.Metrics[name] = valueUnits{m.Value, m.Unit}
	}
	return l
}

// report prints the run for people: the environment stamp, every metric
// with its sample count, the per-layer table of a traced run, and failures.
func (r *result) report(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "== %s  seed %d  trace %v  %d rounds  %d ops attempted, %d failed\n",
		r.Workload, r.Seed, r.Trace, len(r.Rounds), r.Attempted, r.Failed)
	fmt.Fprintf(w, "   %s GOMAXPROCS=%d nproc=%d cpu=%q revision=%s modified=%v\n",
		e.Go, e.GOMAXPROCS, e.NumCPU, e.CPU, e.Revision, e.Modified)
	fmt.Fprintf(w, "   raw round times (s): %.4g  speed scale %.4f\n", r.Rounds, r.Scale)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if r.Trace && m.Value == 0 {
			continue // a layer this workload does not call
		}
		fmt.Fprintf(w, "   %-36s %14.6g %-10s n=%-6d %s\n", name, m.Value, m.Unit, m.N, m.Stat)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "   %-36s %8s %12s %8s\n", "layer (self time)", "calls", "s", "%")
		for _, l := range r.Layers {
			fmt.Fprintf(w, "   %-36s %8d %12.6f %8.3f\n", l.Layer, l.Calls, l.SelfS, l.Pct)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "   FAILED", f)
	}
}

// write saves the run document, plus the spans of a traced run, in dir.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Trace)))
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	if r.Trace {
		return writeJSON(base+".spans.json", r.spans)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseExpected reads the expected-digest table: workload → output id →
// sha256 of the output bytes.
func parseExpected(data []byte) (map[string]map[string]string, error) {
	var exp map[string]map[string]string
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

// updateExpected replaces the workload's recorded digests with digests.
func updateExpected(name string, digests map[string]string) error {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return err
	}
	exp, err := parseExpected(data)
	if err != nil {
		return err
	}
	if len(digests) == 0 {
		return errors.New("no digests to record")
	}
	exp[name] = digests
	return writeJSON(expectedPath, exp)
}
