// Package harness regenerates the paper's evaluation: Tables 2-4 and
// Figures 5a-5c, over the workload suite of package workload. Each
// benchmark is compiled once; its dynamic trace is generated once and
// replayed under every hardware configuration, exactly like the paper's
// emulation-driven methodology.
//
// Experiments optionally fan out across a worker pool (Runner.Parallel)
// with benchmark affinity: one worker owns a benchmark's whole column of
// (benchmark, configuration) cells, so each multi-megabyte trace is built
// once and stays worker-local. Labs are immutable after construction —
// per-simulation load flavours travel as overlays, never as program
// mutations — so every cell is data-race-free and the results (cycle
// counts, speedups, averages) are bit-identical at any parallelism level.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"elag"
	"elag/internal/artifact"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
	_ "elag/internal/mech/all" // register the assist mechanisms
	"elag/internal/pipeline"
	"elag/internal/profile"
	"elag/internal/workload"
)

// Runner executes experiments. The zero value is usable; set Fuel to bound
// per-benchmark dynamic instructions (0 means the emulator's 200M default),
// Parallel to fan benchmarks across workers, and Log to observe progress.
type Runner struct {
	// Fuel caps emulated instructions per benchmark; a truncated trace
	// is still valid for timing studies. 0 means the emulator's default
	// of 200M instructions.
	Fuel int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Parallel is the worker count for grid experiments; <=1 runs
	// serially. Results are identical at every setting — parallelism
	// changes wall time only.
	Parallel int
	// MaxResident bounds how many labs (each holding a multi-megabyte
	// trace) stay cached; 0 derives a bound from Parallel. Labs in use
	// are never invalidated by eviction — the cache only drops its own
	// reference.
	MaxResident int
	// ChunkSize, when > 0, puts labs in streaming mode: the dynamic trace
	// is never materialized, and every simulation re-streams the
	// architectural execution in chunks of this many entries (peak trace
	// memory O(ChunkSize), enabling fuel budgets whose traces could never
	// fit in memory). 0 keeps the trace resident and walks it in
	// emu.DefaultChunkSize windows. Results are bit-identical either way.
	ChunkSize int
	// Counters, when non-nil, receives work-volume telemetry (lab-cache
	// hits/misses, replayed chunks and entries). Purely observational:
	// results are byte-identical with or without it.
	Counters *Counters
	// Artifacts, when non-nil, caches grid experiments at per-benchmark
	// row granularity through the content-addressed store: a row already
	// present (same experiment, benchmark source, fuel, chunk — see
	// rowKey) is decoded instead of simulated, so overlapping grids
	// recompute only missing rows. Cached rows round-trip through JSON,
	// which preserves float64 bits exactly — documents built from cached
	// rows are byte-identical to cold ones.
	Artifacts *artifact.Store
	// Progress, when non-nil, is called after each benchmark column of a
	// grid experiment completes, with the benchmark name and the
	// done/total counts for that experiment. Called from grid worker
	// goroutines; must be cheap and concurrency-safe.
	Progress func(bench string, done, total int)

	logMu sync.Mutex

	labMu  sync.Mutex
	labs   map[string]*labEntry
	labSeq int64
}

// labEntry is one cache slot. ready is closed once l/err are set;
// concurrent requests for the same benchmark wait on it instead of
// building twice (single-flight).
type labEntry struct {
	ready   chan struct{}
	l       *Lab
	err     error
	lastUse int64
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.logMu.Lock()
		fmt.Fprintf(r.Log, format+"\n", args...)
		r.logMu.Unlock()
	}
}

// workers returns the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Parallel > 1 {
		return r.Parallel
	}
	return 1
}

// maxResident returns the lab-cache bound: at least one lab per worker
// plus one, so affinity-scheduled grids never thrash their own columns.
func (r *Runner) maxResident() int {
	if r.MaxResident > 0 {
		return r.MaxResident
	}
	n := r.workers() + 1
	if n < 2 {
		n = 2
	}
	return n
}

// Lab is one benchmark prepared for experiments: compiled, classified,
// profiled, and traced. A Lab is immutable once built — simulations pick a
// classification by passing one of the flavour overlays (or nil for the
// program's baked-in flavours), and any number of simulations may share
// the lab concurrently.
type Lab struct {
	W *workload.Workload
	// Prog is the compiled program. Its instruction stream is never
	// mutated after Build.
	Prog *elag.Program
	// Heur is the classification from the Section 4 heuristics alone;
	// Reclass additionally applies the Section 4.3 address profile.
	Heur    *core.Classification
	Reclass *core.Classification
	// HeurFlavors / ReclassFlavors are the overlay forms of the two
	// classifications, ready to pass as BatchSpec.Flavors.
	HeurFlavors    isa.FlavorOverlay
	ReclassFlavors isa.FlavorOverlay
	// Profile holds per-load unlimited-table prediction rates.
	Profile *profile.LoadProfile
	// Trace is the architectural dynamic trace replayed by the timing
	// model. In streaming mode (Runner.ChunkSize > 0) it is nil — each
	// simulation re-streams the execution instead — so peak memory stays
	// O(chunk) regardless of fuel. EmuRes summarizes the architectural
	// run in both modes.
	Trace  *emu.Trace
	EmuRes emu.Result

	fuel     int64     // runner fuel, for streaming re-emulation
	chunk    int       // streaming chunk size (0 = materialized)
	counters *Counters // work telemetry (Runner.Counters; may be nil)

	baseMu     sync.Mutex
	baseDone   bool
	baseCycles int64
}

// Lab prepares the lab for one workload, returning a cached one when
// available. Concurrent callers requesting the same benchmark share one
// build; distinct benchmarks build independently. The cache keeps at most
// maxResident labs, evicting least-recently-used ones.
//
// ctx bounds the build (compile, profile, trace): a cancelled ctx aborts
// with the ctx error. When the single-flight build a caller was waiting on
// fails because the *builder's* ctx was cancelled, a waiter whose own ctx
// is still live retries the build instead of inheriting the cancellation —
// one caller's deadline never fails another caller's request.
func (r *Runner) Lab(ctx context.Context, w *workload.Workload) (*Lab, error) {
	for {
		l, err := r.labOnce(ctx, w)
		if err == nil || !isContextErr(err) || ctx.Err() != nil {
			return l, err
		}
		// The build was cancelled under someone else's ctx; ours is live.
	}
}

// isContextErr reports whether err is a context cancellation or deadline
// error (possibly wrapped).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// labOnce is one single-flight pass over the lab cache: join an in-flight
// build or become the builder.
func (r *Runner) labOnce(ctx context.Context, w *workload.Workload) (*Lab, error) {
	r.labMu.Lock()
	if r.labs == nil {
		r.labs = make(map[string]*labEntry)
	}
	r.labSeq++
	if e, ok := r.labs[w.Name]; ok {
		e.lastUse = r.labSeq
		r.labMu.Unlock()
		if r.Counters != nil {
			r.Counters.LabHits.Add(1)
		}
		<-e.ready
		return e.l, e.err
	}
	if r.Counters != nil {
		r.Counters.LabMisses.Add(1)
	}
	e := &labEntry{ready: make(chan struct{}), lastUse: r.labSeq}
	r.labs[w.Name] = e
	r.evictLocked()
	r.labMu.Unlock()

	e.l, e.err = r.buildLab(ctx, w)
	if e.err != nil {
		// Do not cache failures: a later retry rebuilds.
		r.labMu.Lock()
		if r.labs[w.Name] == e {
			delete(r.labs, w.Name)
		}
		r.labMu.Unlock()
	}
	close(e.ready)
	return e.l, e.err
}

// evictLocked drops least-recently-used ready entries until the cache fits
// the bound. In-flight builds are never evicted. Callers hold labMu.
func (r *Runner) evictLocked() {
	max := r.maxResident()
	for len(r.labs) > max {
		var victim string
		var oldest int64
		for name, e := range r.labs {
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if victim == "" || e.lastUse < oldest {
				victim, oldest = name, e.lastUse
			}
		}
		if victim == "" {
			return
		}
		delete(r.labs, victim)
	}
}

func (r *Runner) buildLab(ctx context.Context, w *workload.Workload) (*Lab, error) {
	r.logf("build %s", w.Name)
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	l := &Lab{W: w, Prog: p, Heur: p.Classes,
		fuel: r.Fuel, chunk: r.ChunkSize, counters: r.Counters}

	lp, profRes, err := profile.CollectContext(ctx, p.Machine, r.Fuel)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, fmt.Errorf("%s: profile: %w", w.Name, err)
	}
	l.Profile = lp
	l.Reclass = core.Reclassify(l.Heur, lp.Rates(), 0)
	l.HeurFlavors = l.Heur.Overlay(p.Machine)
	l.ReclassFlavors = l.Reclass.Overlay(p.Machine)

	if r.ChunkSize > 0 {
		// Streaming mode: no materialized trace. The profiler's run is a
		// complete architectural execution under the same fuel, so its
		// Result stands in for the trace run's.
		l.EmuRes = profRes
		return l, nil
	}
	// The profiler already emulated this program under the same fuel, so
	// its retired-instruction count sizes the trace columns exactly.
	res, trace, err := emu.RunTraceHintContext(ctx, p.Machine, r.Fuel, profRes.DynamicInsts)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, fmt.Errorf("%s: trace: %w", w.Name, err)
	}
	l.Trace = trace
	l.EmuRes = res
	return l, nil
}

// SimulateBatch replays the benchmark's trace under every spec in a single
// pass — one trace iteration shared by all configurations, each chunk
// cache-hot across the whole batch — returning metrics in spec order. A
// single configuration is a batch of one. Results are bit-identical to
// len(specs) separate replays. Resident labs walk the cached trace in
// emu.DefaultChunkSize windows; streaming labs (Runner.ChunkSize > 0)
// re-emulate the program through recycled chunks and never materialize
// it. Cancellation is checked between chunks in both modes, so every job
// through the lab honors its deadline within one chunk of work.
func (l *Lab) SimulateBatch(ctx context.Context, specs []pipeline.BatchSpec) ([]*pipeline.Metrics, error) {
	ms, _, err := l.counters.Replay(ctx, l.Prog.Machine, specs,
		pipeline.Options{Fuel: l.fuel, Chunk: l.chunk, Trace: l.Trace})
	return ms, err
}

// heurFlavors / reclassFlavors are accessor forms of the overlay fields,
// usable as method expressions in declarative series/spec tables.
func (l *Lab) heurFlavors() isa.FlavorOverlay    { return l.HeurFlavors }
func (l *Lab) reclassFlavors() isa.FlavorOverlay { return l.ReclassFlavors }

// BaseCycles returns (caching) the cycle count of the base architecture,
// the denominator of every speedup in Section 5. Safe for concurrent use;
// the base simulation runs at most once per lab. Only success is cached:
// a simulation cancelled by ctx returns the ctx error without poisoning
// the lab, so a later caller (or the same grid re-run) computes the value
// fresh — cached labs stay byte-identical across cancel-and-retry.
func (l *Lab) BaseCycles(ctx context.Context) (int64, error) {
	l.baseMu.Lock()
	defer l.baseMu.Unlock()
	if l.baseDone {
		return l.baseCycles, nil
	}
	ms, err := l.SimulateBatch(ctx, []pipeline.BatchSpec{{Config: pipeline.PaperBase()}})
	if err != nil {
		return 0, err
	}
	l.baseCycles = ms[0].Cycles
	l.baseDone = true
	return l.baseCycles, nil
}

// Speedup simulates cfg under flavors and returns baseCycles/cycles.
func (l *Lab) Speedup(ctx context.Context, cfg pipeline.Config, flavors isa.FlavorOverlay) (float64, error) {
	base, err := l.BaseCycles(ctx)
	if err != nil {
		return 0, err
	}
	ms, err := l.SimulateBatch(ctx, []pipeline.BatchSpec{{Config: cfg, Flavors: flavors}})
	if err != nil {
		return 0, err
	}
	if ms[0].Cycles == 0 {
		return 0, fmt.Errorf("%s: zero cycles", l.W.Name)
	}
	return float64(base) / float64(ms[0].Cycles), nil
}

// Standard hardware configurations of Section 5, expressed through the
// mechanism registry (internal/mech): pipeline.New normalizes each paper
// spec to the identical typed configuration, so these produce metrics
// byte-identical to the pre-registry literals while sharing the spec
// vocabulary of the CLI flags and the serve job API.

// CompilerDual is the paper's proposal: 256-entry table + 1 R_addr,
// compiler-selected flavours.
func CompilerDual() pipeline.Config { return pipeline.PaperCompilerDirected() }

// Assist wraps one registry spec as a configuration: the mechanism drives
// every load through the assist path, regardless of flavour.
func Assist(spec mech.Spec) pipeline.Config {
	return pipeline.Config{Mechanisms: []mech.Spec{spec}}
}

// HWPredict is hardware-only table prediction with the given table size
// (Figure 5a without compiler support).
func HWPredict(entries int) pipeline.Config {
	return pipeline.Config{
		Select:     pipeline.SelAllPredict,
		Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: entries}},
	}
}

// CompilerPredict is table-only hardware with compiler support: only loads
// the heuristics marked predictable enter the table (Figure 5a "with
// compiler support").
func CompilerPredict(entries int) pipeline.Config {
	return pipeline.Config{
		Select:     pipeline.SelCompiler,
		Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: entries}},
		// No register cache: ld_e loads behave like normal loads.
	}
}

// HWEarly is hardware-only early calculation with n cached registers
// (Figure 5b).
func HWEarly(n int) pipeline.Config {
	return pipeline.Config{
		Select:     pipeline.SelAllEarly,
		Mechanisms: []mech.Spec{{Kind: "earlycalc", Entries: n}},
	}
}

// HWDual is the hardware-only dual-path scheme steered by the
// Eickemeyer-Vassiliadis interlock heuristic (Figure 5c "no compiler").
func HWDual(entries, regs int) pipeline.Config {
	return pipeline.Config{
		Select: pipeline.SelHWDual,
		Mechanisms: []mech.Spec{
			{Kind: "addrpred", Entries: entries},
			{Kind: "earlycalc", Entries: regs},
		},
	}
}
