package harness

import (
	"context"
	"sync"
	"sync/atomic"

	"elag/internal/workload"
)

// Grid scheduling: every experiment is a (benchmark, configuration) grid.
// The unit of dispatch is a whole benchmark — its lab is built once and
// every configuration cell rides one batched replay of its streamed
// emulation — so workers have benchmark affinity and never contend for a
// lab. Each cell writes a
// preallocated slot indexed by benchmark, and callers aggregate (averages,
// row ordering) in benchmark order afterwards; with per-cell results
// independent of scheduling, the output is bit-identical at every worker
// count.

// forEachLab builds the lab for each workload and calls fn(ctx, i, lab),
// fanning benchmarks across r.workers() goroutines. fn is called at most
// once per benchmark, each invocation on a single goroutine (distinct
// benchmarks may run concurrently). The first error cancels the remaining
// benchmarks and is returned; cancelling ctx cancels the grid the same way
// and returns the ctx error. Shutdown is leak-free at every stage: by the
// time forEachLab returns, every worker goroutine it started has exited —
// the pool never outlives the call, whether it ends by completion, by
// first error, or by external cancellation.
func (r *Runner) forEachLab(ctx context.Context, benches []*workload.Workload, fn func(ctx context.Context, i int, l *Lab) error) error {
	// doneN feeds the Progress hook; it counts completed benchmark
	// columns of THIS forEachLab call (each experiment restarts at 0).
	var doneN atomic.Int64
	progress := func(i int) {
		if r.Progress != nil {
			r.Progress(benches[i].Name, int(doneN.Add(1)), len(benches))
		}
	}
	if r.workers() <= 1 || len(benches) <= 1 {
		for i, w := range benches {
			if err := ctx.Err(); err != nil {
				return err
			}
			l, err := r.Lab(ctx, w)
			if err != nil {
				return err
			}
			if err := fn(ctx, i, l); err != nil {
				return err
			}
			progress(i)
		}
		return nil
	}

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	idx := make(chan int)
	workers := r.workers()
	if workers > len(benches) {
		workers = len(benches)
	}
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-gctx.Done():
					return
				case i, ok := <-idx:
					if !ok {
						return
					}
					if gctx.Err() != nil {
						continue // raced with cancellation; drain
					}
					l, err := r.Lab(gctx, benches[i])
					if err != nil {
						fail(err)
						continue
					}
					if err := fn(gctx, i, l); err != nil {
						fail(err)
						continue
					}
					progress(i)
				}
			}
		}()
	}
	// The feeder must never block on a pool that stopped consuming: once
	// gctx is cancelled (first error or external cancel) the send loop
	// stops, idx closes, and the workers' two exit paths (Done, closed
	// idx) drain the pool.
feed:
	for i := range benches {
		select {
		case idx <- i:
		case <-gctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// External cancellation may land after the last fn returned but before
	// any call observed it; the grid still reports it.
	return ctx.Err()
}
