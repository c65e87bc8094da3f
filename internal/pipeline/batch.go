package pipeline

// Batched multi-configuration replay: the evaluation replays one
// architectural trace under many hardware configurations (every table and
// figure of the paper is such a grid), and the per-configuration sequential
// shape pays for the trace twice per cell — once to produce it, once to
// stream its megabytes past the sim. Replay instead advances N independent
// pipeline states through each trace chunk in one pass: the program is
// emulated exactly once (streamed, O(chunk) memory, no dry counting pass),
// the sims are spread over one lane goroutine per CPU, and the lanes replay
// chunk k while the caller emulates chunk k+1. Each Sim is fully
// independent state, advanced by one goroutine at a time over a chunk no
// one writes, so the batched metrics are bit-identical to N sequential
// replays. A single configuration is a batch of one.

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
// cache (nil uses the program's baked-in flavours), and the observers to
// attach to that cell's Sim.
type BatchSpec struct {
	Config  Config
	Flavors isa.FlavorOverlay
	// Sink, when non-nil, receives the cell's cycle-level event stream
	// (stage occupancy, speculation launch/forward/fail with failure
	// terms, R_addr and prediction-table transitions, cache misses,
	// stalls). Observation never changes the timing result. Replay calls
	// the sink from a lane goroutine, never concurrently for one spec;
	// share one sink across specs only if it is safe for concurrent use.
	Sink EventSink
	// PerPC enables the per-PC load attribution table, returned on
	// Metrics.PerPC; its rows sum exactly to the global path counters.
	PerPC bool
}

// NewBatch constructs one independent Sim per spec over prog, with each
// spec's observers attached. Any construction error aborts the whole batch.
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
	// OnChunk, when non-nil, is called after each chunk has been replayed
	// through every sim, with the cumulative replayed-entry count and the
	// size of the chunk just finished. It runs on Replay's goroutine,
	// strictly between chunks — no lane is replaying while it runs — and
	// gets no access to the sims, so results are byte-identical with or
	// without it.
	OnChunk func(done int64, n int)
}

// Replay emulates prog once, streamed in o.Chunk-entry chunks, and
// replays every chunk through one Sim per spec, returning the per-spec
// metrics in spec order plus the architectural result. Peak trace memory
// is O(o.Chunk) regardless of fuel.
//
// The sims are dealt round-robin onto min(GOMAXPROCS, len(specs)) lanes,
// goroutines that live for the call, and each lane runs RunChunkBatch over
// its own sims. While the lanes replay chunk k, Replay's goroutine
// emulates chunk k+1 into the other slot of emu.StreamTrace's two-deep
// ring; at the next yield it joins chunk k, reports it to OnChunk, checks
// ctx and only then dispatches chunk k+1. So a cancelled replay returns
// the ctx error within one chunk of work, and a cancellation from OnChunk
// lets no further chunk be replayed. A fuel-truncated run is still
// replayed — prefix timing is valid timing — so fuel exhaustion is not an
// error here; any other emulation fault is returned after the flushed
// partial chunk has been replayed.
func Replay(ctx context.Context, prog *isa.Program, specs []BatchSpec, o Options) ([]*Metrics, emu.Result, error) {
	sims, err := NewBatch(prog, specs)
	if err != nil {
		return nil, emu.Result{}, err
	}
	ls := startLanes(sims)
	defer ls.stop()
	var done int64
	inFlight := 0 // entries in the chunk the lanes are replaying; 0 if idle
	// settle joins the chunk in flight, if any, and reports it.
	settle := func() error {
		if inFlight == 0 {
			return nil
		}
		n := inFlight
		inFlight = 0
		if err := ls.join(); err != nil {
			return err
		}
		done += int64(n)
		if o.OnChunk != nil {
			o.OnChunk(done, n)
		}
		return nil
	}
	res, err := emu.StreamTraceContext(ctx, prog, o.Fuel, o.Chunk, func(chunk *emu.Trace) error {
		// The previous chunk's ring slot is refilled as soon as this
		// yield returns, so its replay must finish first.
		if err := settle(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil { // OnChunk may have cancelled
			return err
		}
		inFlight = chunk.Len()
		ls.dispatch(chunk)
		return nil
	})
	// However the stream ended, its last chunk may still be in flight. A
	// replay error there came before anything the emulator hit after it.
	if serr := settle(); serr != nil {
		err = serr
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
// (DESIGN §11 has the numbers). Each dispatched chunk gets exactly one
// result per lane on done, and nothing is allocated per chunk.
type lanes struct {
	work []chan *emu.Trace // one per lane, closed by stop
	// done holds one result per lane, so a lane never blocks on it and
	// stop cannot hang even if Replay unwinds with a chunk in flight.
	done chan error
	wg   sync.WaitGroup
}

func startLanes(sims []*Sim) *lanes {
	n := min(runtime.GOMAXPROCS(0), len(sims))
	ls := &lanes{work: make([]chan *emu.Trace, n), done: make(chan error, n)}
	dealt := make([]*Sim, 0, len(sims))
	for i := range ls.work {
		from := len(dealt)
		for j := i; j < len(sims); j += n {
			dealt = append(dealt, sims[j])
		}
		ls.work[i] = make(chan *emu.Trace)
		ls.wg.Add(1)
		go ls.run(dealt[from:], ls.work[i])
	}
	return ls
}

// run is one lane: it replays each chunk it receives through its sims and
// reports the outcome. A panic is reported too, so join can re-raise it on
// Replay's goroutine, where the caller's recover (elag-serve's worker
// isolation) catches a simulator bug as before.
func (ls *lanes) run(sims []*Sim, work <-chan *emu.Trace) {
	defer ls.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			ls.done <- lanePanic(fmt.Sprintf("%v\n\nlane goroutine stack:\n%s", r, debug.Stack()))
		}
	}()
	for chunk := range work {
		ls.done <- RunChunkBatch(sims, chunk)
	}
}

// dispatch hands chunk to every lane. Lanes are idle between join and
// dispatch, so no send waits on a replay.
func (ls *lanes) dispatch(chunk *emu.Trace) {
	for _, w := range ls.work {
		w <- chunk
	}
}

// join waits until every lane has replayed the dispatched chunk and
// returns the first error reported. Lanes can only fail on a trace entry
// outside the program, which every sim rejects identically.
func (ls *lanes) join() error {
	var first error
	var crash lanePanic
	for range ls.work {
		switch err := (<-ls.done).(type) {
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
	return first
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
