package pipeline

// Batched multi-configuration replay: the evaluation replays one
// architectural trace under many hardware configurations (every table and
// figure of the paper is such a grid), and the per-configuration sequential
// shape pays for the trace twice per cell — once to produce it, once to
// stream its megabytes past the sim. Replay instead advances N independent
// pipeline states through each trace chunk in one pass: the program is
// emulated exactly once (streamed, O(chunk) memory, no dry counting pass),
// the sims are spread over one lane goroutine per CPU, and the caller
// emulates up to a ring's worth of chunks ahead of the lanes. Each Sim is
// fully independent state, advanced by one goroutine at a time over a
// chunk no one writes, so the batched metrics are bit-identical to N
// sequential replays. A single configuration is a batch of one.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"elag/internal/emu"
	"elag/internal/isa"
)

// BatchSpec is one configuration cell of a batched replay: a hardware
// configuration plus the load-flavour overlay to resolve into its decode
// cache (nil uses the program's baked-in flavours), and the event sink and
// per-PC attribution to attach to that cell's Sim.
type BatchSpec struct {
	Config  Config
	Flavors isa.FlavorOverlay
	// Sink, when non-nil, receives the cell's cycle-level event stream
	// (stage occupancy, speculation launch/forward/fail with failure
	// terms, R_addr binds, prediction-table transitions, cache accesses
	// and misses, branches, stalls). Observation never changes the timing
	// result. Replay calls
	// the sink from a lane goroutine, never concurrently for one spec;
	// share one sink across specs only if it is safe for concurrent use.
	Sink EventSink
	// PerPC enables the per-PC load attribution table, returned on
	// Metrics.PerPC; its rows sum exactly to the global path counters.
	PerPC bool
}

// NewBatch constructs one independent Sim per spec over prog, with each
// spec's sink and attribution attached. Any construction error aborts the
// whole batch.
func NewBatch(prog *isa.Program, specs []BatchSpec) ([]*Sim, error) {
	sims := make([]*Sim, len(specs))
	for i, sp := range specs {
		sim, err := New(sp.Config, prog, sp.Flavors)
		if err != nil {
			return nil, err
		}
		if sp.PerPC {
			sim.EnablePerPC()
		}
		if sp.Sink != nil {
			sim.AttachSink(sp.Sink)
		}
		sims[i] = sim
	}
	return sims, nil
}

// RunChunkBatch advances every sim through chunk on the calling goroutine,
// one sim at a time: each sim walks the whole chunk before the next
// starts, so a sim's own state (scoreboard, caches, predictor) stays hot
// in L1 across consecutive entries while the chunk itself — small enough
// to sit in L2 — is reread by each configuration. It is one lane's work in
// Replay. StepInst treats the shared entries as read-only, so calls over
// disjoint sims may replay one chunk concurrently, and the metrics are
// bit-identical to N sequential replays.
func RunChunkBatch(sims []*Sim, chunk *emu.Trace) error {
	for _, s := range sims {
		if err := s.RunChunk(chunk); err != nil {
			return err
		}
	}
	return nil
}

// Options are the run-level arguments of Replay. The zero value streams a
// fresh emulation under the default fuel in emu.DefaultChunkSize chunks.
type Options struct {
	// Fuel caps emulated instructions; <= 0 means emu's 200M default.
	Fuel int64
	// Chunk is the replay window in trace entries; <= 0 means
	// emu.DefaultChunkSize. Results are bit-identical at every setting.
	Chunk int
	// OnChunk, when non-nil, is called once every sim has replayed a
	// chunk, with the cumulative replayed-entry count and the size of that
	// chunk. Replay calls it on its own goroutine, in chunk order, and not
	// once ctx is done; it may run while the lanes replay later chunks,
	// and it gets no access to the sims, so results are byte-identical
	// with or without it.
	OnChunk func(done int64, n int)
}

// Replay emulates prog once, streamed in o.Chunk-entry chunks, and
// replays every chunk through one Sim per spec, returning the per-spec
// metrics in spec order plus the architectural result. Peak trace memory
// is O(o.Chunk) regardless of fuel.
//
// The sims are dealt round-robin onto min(GOMAXPROCS, len(specs)) lanes,
// goroutines that live for the call; each lane runs RunChunkBatch over
// its own sims, one chunk after another in trace order. Replay's
// goroutine emulates and queues every chunk to every lane as soon as it
// is yielded. It joins a chunk (waits until every lane has replayed it)
// only when the emulator is about to refill that chunk's slot of
// emu.StreamTrace's ring, so the emulator runs up to
// emu.RingDepth(o.Chunk)-1 chunks ahead of the slowest lane. Chunks are
// joined, and reported to OnChunk, in trace order. Each lane checks ctx
// before each chunk, so a cancelled replay stops within one chunk of work
// per lane; once ctx is done Replay reports no further chunk and returns
// the ctx error. A fuel-truncated run is still replayed — prefix timing
// is valid timing — so fuel exhaustion is not an error here; any other
// emulation fault is returned after every chunk up to the flushed partial
// one has been replayed, unless replaying one of them failed first.
func Replay(ctx context.Context, prog *isa.Program, specs []BatchSpec, o Options) ([]*Metrics, emu.Result, error) {
	sims, err := NewBatch(prog, specs)
	if err != nil {
		return nil, emu.Result{}, err
	}
	// The emulator refills a chunk's slot once depth-1 later chunks have
	// been yielded, so no more than depth-1 chunks are ever in flight.
	ls := startLanes(ctx, sims, emu.RingDepth(o.Chunk)-1)
	defer ls.stop()
	var done int64
	var failed error // a failed join or a done ctx: nothing is reported after it
	// settle joins the oldest chunk in flight and, unless that fails,
	// reports it.
	settle := func() {
		n, err := ls.join()
		if err == nil {
			err = ctx.Err()
		}
		if failed = err; err == nil {
			done += int64(n)
			if o.OnChunk != nil {
				o.OnChunk(done, n)
			}
		}
	}
	res, err := emu.StreamTraceContext(ctx, prog, o.Fuel, o.Chunk, func(chunk *emu.Trace) error {
		// The oldest chunk's slot is refilled as soon as this yield
		// returns when the queues are full, so its replay must end first.
		if len(ls.sizes) == cap(ls.sizes) {
			if settle(); failed != nil {
				return failed
			}
		}
		if err := ctx.Err(); err != nil { // OnChunk may have cancelled
			return err
		}
		ls.dispatch(chunk)
		return nil
	})
	// However the stream ended, the chunks still in flight are joined in
	// order: a replay error in one came before anything the emulator hit
	// after it.
	for failed == nil && len(ls.sizes) > 0 {
		settle()
	}
	if failed != nil {
		err = failed
	}
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, res, err
	}
	ms := make([]*Metrics, len(sims))
	for i, sim := range sims {
		ms[i] = sim.Metrics()
	}
	return ms, res, nil
}

// lanes are Replay's replay goroutines. Lane i owns sims i, i+n, i+2n, …:
// a batch usually leads with the base machine, the cheapest to replay, and
// dealing round-robin balances the lanes better than contiguous blocks do
// (DESIGN §11 has the numbers). Each lane replays its queue in order and
// answers every chunk with one result on its own done queue, and nothing
// is allocated per chunk.
type lanes struct {
	work  []chan *emu.Trace // one queue per lane, closed by stop
	done  []chan error      // one result per chunk, per lane
	sizes chan int          // the length of each chunk in flight, oldest first
	wg    sync.WaitGroup
}

// startLanes starts a lane per CPU for sims. Every queue holds inFlight
// chunks, as many as Replay ever has in flight, so no send ever blocks,
// not even to a lane that died.
func startLanes(ctx context.Context, sims []*Sim, inFlight int) *lanes {
	n := min(runtime.GOMAXPROCS(0), len(sims))
	ls := &lanes{work: make([]chan *emu.Trace, n), done: make([]chan error, n),
		sizes: make(chan int, inFlight)}
	dealt := make([]*Sim, 0, len(sims))
	for i := range ls.work {
		from := len(dealt)
		for j := i; j < len(sims); j += n {
			dealt = append(dealt, sims[j])
		}
		ls.work[i] = make(chan *emu.Trace, inFlight)
		ls.done[i] = make(chan error, inFlight)
		ls.wg.Add(1)
		go ls.run(ctx, dealt[from:], ls.work[i], ls.done[i])
	}
	return ls
}

// run is one lane: it replays each chunk it receives through its sims,
// unless ctx is done, and reports the outcome. A panic is reported too,
// so join can re-raise it on Replay's goroutine, where the caller's
// recover (elag-serve's worker isolation) catches a simulator bug as
// before; the lane then exits.
func (ls *lanes) run(ctx context.Context, sims []*Sim, work <-chan *emu.Trace, done chan<- error) {
	defer ls.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			done <- lanePanic(fmt.Sprintf("%v\n\nlane goroutine stack:\n%s", r, debug.Stack()))
		}
	}()
	for chunk := range work {
		err := ctx.Err()
		if err == nil {
			err = RunChunkBatch(sims, chunk)
		}
		done <- err
	}
}

// dispatch queues chunk to every lane.
func (ls *lanes) dispatch(chunk *emu.Trace) {
	ls.sizes <- chunk.Len()
	for _, w := range ls.work {
		w <- chunk
	}
}

// join waits until every lane has replayed the oldest chunk in flight and
// returns its length and the first error reported for it. Lanes can only
// fail on a trace entry outside the program, which every sim rejects
// identically, or on a done ctx.
func (ls *lanes) join() (int, error) {
	n := <-ls.sizes
	var first error
	var crash lanePanic
	for _, d := range ls.done {
		switch err := (<-d).(type) {
		case lanePanic:
			crash = err
		default:
			if first == nil {
				first = err
			}
		}
	}
	if crash != "" {
		panic(string(crash))
	}
	return n, first
}

// stop ends every lane and returns once they have all exited.
func (ls *lanes) stop() {
	for _, w := range ls.work {
		close(w)
	}
	ls.wg.Wait()
}

// lanePanic carries a lane's panic value and stack to join.
type lanePanic string

func (p lanePanic) Error() string { return string(p) }
