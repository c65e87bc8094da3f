package pipeline

// Batched multi-configuration replay: the evaluation replays one
// architectural trace under many hardware configurations (every table and
// figure of the paper is such a grid), and the per-configuration sequential
// shape pays for the trace twice per cell — once to produce it, once to
// stream its megabytes past the sim. Replay instead advances N independent
// pipeline states through each trace chunk in one pass: the program is
// emulated exactly once (streamed, O(chunk) memory, no dry counting pass),
// and each chunk is still hot in L1/L2 when the next configuration replays
// it. Each Sim is fully independent state, so the batched metrics are
// bit-identical to N sequential replays. A single configuration is a batch
// of one.

import (
	"context"
	"errors"

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
	// stalls). Observation never changes the timing result.
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

// RunChunkBatch advances every sim through chunk, one sim at a time: each
// sim walks the whole chunk before the next starts, so a sim's own state
// (scoreboard, caches, predictor) stays hot in L1 across consecutive
// entries while the chunk itself — small enough to sit in L2 — is reread
// by each configuration. StepInst treats the shared entries as read-only,
// so the batched metrics are bit-identical to N sequential replays.
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
	// size of the chunk just finished. It runs strictly between chunks and
	// gets no access to the sims, so results are byte-identical with or
	// without it.
	OnChunk func(done int64, n int)
}

// Replay emulates prog once, streamed in o.Chunk-entry chunks, and
// replays every chunk through one Sim per spec, returning the per-spec
// metrics in spec order plus the architectural result. Peak trace memory
// is O(o.Chunk) regardless of fuel. ctx is checked between chunks, so a
// cancelled replay returns the ctx error within one chunk of work. A
// fuel-truncated run is still replayed — prefix timing is valid timing —
// so fuel exhaustion is not an error here.
func Replay(ctx context.Context, prog *isa.Program, specs []BatchSpec, o Options) ([]*Metrics, emu.Result, error) {
	sims, err := NewBatch(prog, specs)
	if err != nil {
		return nil, emu.Result{}, err
	}
	var done int64
	res, err := emu.StreamTraceContext(ctx, prog, o.Fuel, o.Chunk, func(chunk *emu.Trace) error {
		if err := RunChunkBatch(sims, chunk); err != nil {
			return err
		}
		if o.OnChunk != nil {
			done += int64(chunk.Len())
			o.OnChunk(done, chunk.Len())
		}
		return nil
	})
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, res, err
	}
	ms := make([]*Metrics, len(sims))
	for i, sim := range sims {
		ms[i] = sim.Metrics()
	}
	return ms, res, nil
}
