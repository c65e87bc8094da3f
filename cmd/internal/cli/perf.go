package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// Perf is the performance flag set shared by the elag tools: -parallel
// (worker/GOMAXPROCS parallelism), -timeout (a wall-clock deadline for the
// whole run), -cpuprofile and -memprofile (pprof output), and, for the
// tools that replay a streamed trace, -chunk (its chunk size). Register
// with PerfFlags before flag.Parse, bracket main's work with Start/Stop,
// and pass Context() into the work so the deadline — and Ctrl-C /
// SIGTERM — interrupt long grids cleanly instead of leaving the process
// killable only by signal.
type Perf struct {
	// Parallel is the requested parallelism: the worker-pool size for
	// grid experiments and the GOMAXPROCS setting for the process, which
	// also bounds each batched replay's lanes (pipeline.Replay).
	Parallel int
	// Chunk is the streaming trace chunk size in entries; 0 means the
	// default size. The architectural execution always streams in
	// recycled chunks (peak trace memory O(Chunk), any fuel budget fits in
	// memory). Results are bit-identical at every setting. It stays 0
	// unless PerfFlags registered -chunk.
	Chunk int
	// Timeout, when > 0, bounds the whole run's wall time: Context()
	// carries the deadline, and every simulation/grid entry point checks
	// it between trace chunks.
	Timeout time.Duration

	chunked    bool // -chunk is registered
	cpuprofile string
	memprofile string
	tool       string
	f          *os.File
	start      time.Time

	ctx       context.Context
	ctxCancel context.CancelFunc

	sampleStop chan struct{}
	sampleDone sync.WaitGroup
	peakHeap   uint64
}

// PerfFlags registers the shared performance flags on the default flag
// set. chunked also registers -chunk, for the tools that pass it to a
// replay (elag-sim, elag-bench, elag-trace).
func PerfFlags(chunked bool) *Perf {
	p := &Perf{chunked: chunked}
	flag.IntVar(&p.Parallel, "parallel", runtime.GOMAXPROCS(0),
		"parallelism: sets GOMAXPROCS, which bounds both the grid worker pool and each batch's replay lanes (results are identical at any value)")
	if chunked {
		flag.IntVar(&p.Chunk, "chunk", 0,
			"stream traces in chunks of this many entries (0 = the default size; results identical)")
	}
	flag.DurationVar(&p.Timeout, "timeout", 0,
		"wall-clock deadline for the run (e.g. 30s, 5m; 0 = none)")
	flag.StringVar(&p.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&p.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	return p
}

// Context returns the run's context: cancelled by SIGINT/SIGTERM, and
// carrying the -timeout deadline when one was set. The first call arms the
// signal handler; later calls return the same context. Valid after Start.
func (p *Perf) Context() context.Context {
	if p.ctx == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		if p.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.Timeout)
			prev := stop
			stop = func() { cancel(); prev() }
		}
		p.ctx, p.ctxCancel = ctx, stop
	}
	return p.ctx
}

// CheckContext exits with a per-cause message and status when err (or the
// run context itself) reports cancellation: deadline exhaustion and
// interrupts are operational outcomes, not tool bugs, so they are reported
// as such. Any other error falls through to Fatal via the caller.
func (p *Perf) CheckContext(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: timed out after %s (-timeout)\n", p.tool, p.Timeout)
		os.Exit(3)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", p.tool)
		os.Exit(3)
	}
}

// Start applies the parallelism setting, starts profiling and the peak-heap
// sampler, and begins the wall-time clock. Call after flag.Parse.
func (p *Perf) Start(tool string) {
	p.tool = tool
	p.start = time.Now()
	if p.Parallel > 0 {
		runtime.GOMAXPROCS(p.Parallel)
	}
	if p.cpuprofile != "" {
		f, err := os.Create(p.cpuprofile)
		if err != nil {
			Fatal(tool, fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Fatal(tool, fmt.Errorf("cpuprofile: %w", err))
		}
		p.f = f
	}
	p.sampleStop = make(chan struct{})
	p.sampleDone.Add(1)
	go p.sampleHeap()
}

// sampleHeap polls HeapAlloc until Stop, tracking the high-water mark. A
// 10ms tick is frequent enough to catch a multi-megabyte allocation yet
// cheap enough to never show in profiles.
func (p *Perf) sampleHeap() {
	defer p.sampleDone.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var ms runtime.MemStats
	for {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > p.peakHeap {
			p.peakHeap = ms.HeapAlloc
		}
		select {
		case <-p.sampleStop:
			return
		case <-tick.C:
		}
	}
}

// PeakHeap stops the sampler (idempotent) and returns the observed peak
// HeapAlloc in bytes.
func (p *Perf) PeakHeap() uint64 {
	if p.sampleStop != nil {
		close(p.sampleStop)
		p.sampleDone.Wait()
		p.sampleStop = nil
	}
	return p.peakHeap
}

// Stop flushes the profiles (if any) and reports wall time plus peak heap
// on stderr. Both go to stderr so stdout artifacts stay byte-comparable
// across -parallel and -chunk settings.
func (p *Perf) Stop() {
	if p.ctxCancel != nil {
		p.ctxCancel()
	}
	if p.f != nil {
		pprof.StopCPUProfile()
		if err := p.f.Close(); err != nil {
			Fatal(p.tool, fmt.Errorf("cpuprofile: %w", err))
		}
		fmt.Fprintf(os.Stderr, "%s: CPU profile written to %s\n", p.tool, p.cpuprofile)
	}
	peak := p.PeakHeap()
	if p.memprofile != "" {
		f, err := os.Create(p.memprofile)
		if err != nil {
			Fatal(p.tool, fmt.Errorf("memprofile: %w", err))
		}
		runtime.GC() // up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			Fatal(p.tool, fmt.Errorf("memprofile: %w", err))
		}
		if err := f.Close(); err != nil {
			Fatal(p.tool, fmt.Errorf("memprofile: %w", err))
		}
		fmt.Fprintf(os.Stderr, "%s: heap profile written to %s\n", p.tool, p.memprofile)
	}
	settings := fmt.Sprintf("parallel=%d", p.Parallel)
	if p.chunked {
		settings += fmt.Sprintf(" chunk=%d", p.Chunk)
	}
	fmt.Fprintf(os.Stderr, "%s: wall time %.3fs, peak heap %.1f MB (%s)\n",
		p.tool, time.Since(p.start).Seconds(), float64(peak)/(1<<20), settings)
}
