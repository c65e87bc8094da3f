// Package harness regenerates the paper's evaluation: Tables 2-4 and
// Figures 5a-5c, over the workload suite of package workload. Each
// benchmark is compiled, classified and profiled once per Runner (its
// Lab); every replay then re-emulates it and streams the dynamic trace
// through a batch of hardware configurations, exactly like the paper's
// emulation-driven methodology. No trace is ever materialized, so a lab is
// small and a Runner keeps every lab it builds.
//
// Experiments optionally fan out across a worker pool (Runner.Parallel)
// with benchmark affinity: one worker owns a benchmark's whole column of
// (benchmark, configuration) cells and replays them in one streamed pass,
// whose pipeline.Replay spreads the cells over up to GOMAXPROCS lane
// goroutines — so even a serial grid uses more than one CPU. Labs are
// immutable after construction — per-simulation load flavours
// travel as overlays, never as program mutations — so every cell is
// data-race-free and the results (cycle counts, speedups, averages) are
// bit-identical at any parallelism level.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"elag"
	"elag/internal/artifact"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/isa"
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
	// Parallel is the worker count for grid experiments; <= 1 builds
	// and replays one benchmark at a time. It does not bound CPU use:
	// each replay also deals its configurations onto up to GOMAXPROCS
	// lanes (pipeline.Replay). Results are identical at every setting —
	// parallelism changes wall time only.
	Parallel int
	// ChunkSize is the replay stream's chunk size in trace entries; 0
	// means emu.DefaultChunkSize. Every replay re-streams the
	// architectural execution, so peak trace memory is O(ChunkSize) at
	// any fuel. Results are bit-identical at every setting.
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

	labMu sync.Mutex
	labs  map[string]*labEntry
}

// labEntry is one cache slot. ready is closed once l/err are set;
// concurrent requests for the same benchmark wait on it instead of
// building twice (single-flight).
type labEntry struct {
	ready chan struct{}
	l     *Lab
	err   error
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

// Lab is one benchmark prepared for experiments: compiled, classified and
// profiled. It holds no trace — every simulation re-streams the
// architectural execution — so peak memory stays O(chunk) regardless of
// fuel. A Lab is immutable once built — simulations pick a classification
// by passing one of the flavour overlays (or nil for the program's
// baked-in flavours), and any number of simulations may share the lab
// concurrently.
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
	// EmuRes summarizes the architectural run: the profiler's emulation,
	// under the same fuel every replay streams.
	EmuRes emu.Result

	fuel     int64     // runner fuel, for streaming re-emulation
	chunk    int       // streaming chunk size (0 = emu.DefaultChunkSize)
	counters *Counters // work telemetry (Runner.Counters; may be nil)

	// baseCycles caches the base architecture's cycle count once a
	// Speedups call has measured it; 0 means not yet measured.
	baseCycles atomic.Int64
}

// Lab prepares the lab for one workload, returning a cached one when
// available. Concurrent callers requesting the same benchmark share one
// build; distinct benchmarks build independently. The Runner keeps every
// lab it builds for its lifetime: labs hold no trace, and the grids only
// ever build the fixed workload suite.
//
// ctx bounds the build (compile, profile): a cancelled ctx aborts
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
	if e, ok := r.labs[w.Name]; ok {
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
	e := &labEntry{ready: make(chan struct{})}
	r.labs[w.Name] = e
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

func (r *Runner) buildLab(ctx context.Context, w *workload.Workload) (*Lab, error) {
	r.logf("build %s", w.Name)
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	// The profiler's run is a complete architectural execution under the
	// same fuel every replay streams, so its Result is the lab's.
	lp, res, err := profile.CollectContext(ctx, p.Machine, r.Fuel)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, fmt.Errorf("%s: profile: %w", w.Name, err)
	}
	reclass := core.Reclassify(p.Classes, lp.Rates(), 0)
	return &Lab{
		W: w, Prog: p, Profile: lp, EmuRes: res,
		Heur: p.Classes, HeurFlavors: p.Classes.Overlay(p.Machine),
		Reclass: reclass, ReclassFlavors: reclass.Overlay(p.Machine),
		fuel: r.Fuel, chunk: r.ChunkSize, counters: r.Counters,
	}, nil
}

// SimulateBatch replays the benchmark under every spec in a single pass —
// one streamed emulation shared by all configurations, each chunk
// cache-hot across the whole batch — returning metrics in spec order. A
// single configuration is a batch of one. Results are bit-identical to
// len(specs) separate replays. Cancellation is checked between chunks, so
// every job through the lab honors its deadline within one chunk of work.
func (l *Lab) SimulateBatch(ctx context.Context, specs []pipeline.BatchSpec) ([]*pipeline.Metrics, error) {
	ms, _, err := l.counters.Replay(ctx, l.Prog.Machine, specs,
		pipeline.Options{Fuel: l.fuel, Chunk: l.chunk})
	return ms, err
}

// heurFlavors / reclassFlavors are accessor forms of the overlay fields,
// usable as method expressions in declarative series/spec tables.
func (l *Lab) heurFlavors() isa.FlavorOverlay    { return l.HeurFlavors }
func (l *Lab) reclassFlavors() isa.FlavorOverlay { return l.ReclassFlavors }

// Speedups replays specs in one batch and returns each one's speedup
// over the base architecture (the zero pipeline.Config, the denominator
// of every speedup in Section 5), in spec order. The base replay rides in
// the batch of the lab's first call and its cycle count is cached for
// later ones, so every call streams the program exactly once. Only success
// is cached: a replay cancelled by ctx returns the ctx error without
// poisoning the lab.
func (l *Lab) Speedups(ctx context.Context, specs []pipeline.BatchSpec) ([]float64, error) {
	base := l.baseCycles.Load()
	if base == 0 {
		specs = append([]pipeline.BatchSpec{{Config: pipeline.Config{}}}, specs...)
	}
	ms, err := l.SimulateBatch(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", l.W.Name, err)
	}
	if base == 0 {
		base = ms[0].Cycles
		l.baseCycles.Store(base)
		ms = ms[1:]
	}
	sp := make([]float64, len(ms))
	for i, m := range ms {
		if m.Cycles == 0 {
			return nil, fmt.Errorf("%s: spec %d: zero cycles", l.W.Name, i)
		}
		sp[i] = float64(base) / float64(m.Cycles)
	}
	return sp, nil
}
