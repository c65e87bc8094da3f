package harness

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"elag/internal/emu"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// ReplayBenchSchema versions the elag-bench -replaybench JSON document
// (BENCH_replay.json in the repository root); bump on any field-shape
// change. v4 drops the block-timing hit-rate field with its on/off twin
// and hot-loop entries; v3 moved the per-configuration replay entries to
// the streaming path.
const ReplayBenchSchema = "elag-replaybench/v4"

// ReplayBenchResult is one microbenchmark: the timing model replaying the
// prepared SPEC traces under one configuration (or configuration batch).
type ReplayBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MInstPerSec float64 `json:"minst_per_sec"`
	// PeakBytes is the peak HeapAlloc observed while one op ran on an
	// otherwise idle heap: the live-memory cost of the engine shape, which
	// is what streaming bounds (resident traces dominate it otherwise).
	PeakBytes int64 `json:"peak_bytes"`
}

// ReplayBenchDoc is the machine-readable replay-throughput record, the
// repository's tracked evidence for trace-replay hot-path performance.
type ReplayBenchDoc struct {
	Schema string `json:"schema"`
	// Fuel is the per-benchmark dynamic instruction budget of the
	// replayed traces.
	Fuel    int64               `json:"fuel"`
	Results []ReplayBenchResult `json:"results"`
}

// peakHeap runs fn on a freshly collected heap while sampling HeapAlloc
// every millisecond, returning the observed high-water mark in bytes.
func peakHeap(fn func() error) (int64, error) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	return int64(peak), err
}

// allSpecs is the five-configuration grid of elag-sim -all: the base
// architecture plus every early-address scheme, compiler-directed last.
func allSpecs(l *Lab) []pipeline.BatchSpec {
	return []pipeline.BatchSpec{
		{Config: pipeline.PaperBase()},
		{Config: HWPredict(256)},
		{Config: HWEarly(16)},
		{Config: HWDual(256, 16)},
		{Config: CompilerDual(), Flavors: l.HeurFlavors},
	}
}

// ReplayBench measures trace-replay throughput over the Table-2 workload.
// All entries run the streaming path (the trace is never materialized —
// peak_bytes stays O(chunk)); labs are built outside the timed region, so
// ns/op and allocs/op measure the replay hot loop alone.
// "replay-table2" replays every SPEC benchmark under the paper's
// compiler-directed configuration, "replay-base" under the base
// architecture. "seq-all" runs the full five-configuration grid per
// benchmark the pre-batching way (one materialized emulation per cell) and
// "batch-all" the batched way (one streamed emulation shared by all cells);
// their ns/op ratio is the single-pass speedup.
func (r *Runner) ReplayBench(ctx context.Context) (*ReplayBenchDoc, error) {
	benches := workload.BySuite(workload.SPEC)
	chunk := r.ChunkSize
	if chunk <= 0 {
		chunk = emu.DefaultChunkSize
	}
	rs := &Runner{Fuel: r.Fuel, ChunkSize: chunk, MaxResident: len(benches) + 1}
	labs := make([]*Lab, len(benches))
	var insts int64
	for i, w := range benches {
		l, err := rs.Lab(ctx, w)
		if err != nil {
			return nil, err
		}
		labs[i] = l
		insts += l.EmuRes.DynamicInsts
	}

	doc := &ReplayBenchDoc{Schema: ReplayBenchSchema, Fuel: r.Fuel}
	// add times one entry: sim replays one lab, and one op runs it over
	// every lab. insts is the dynamic instructions one op replays.
	add := func(name string, insts int64, sim func(l *Lab) error) error {
		op := func() error {
			for _, l := range labs {
				if err := sim(l); err != nil {
					return err
				}
			}
			return nil
		}
		// Validate once outside the benchmark — testing.Benchmark has no
		// error channel — and sample the peak heap of one op while at it.
		peak, err := peakHeap(op)
		if err != nil {
			return err
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		doc.Results = append(doc.Results, ReplayBenchResult{
			Name:        name,
			Iterations:  br.N,
			NsPerOp:     br.NsPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			MInstPerSec: float64(insts) * float64(br.N) / br.T.Seconds() / 1e6,
			PeakBytes:   peak,
		})
		return nil
	}

	table2 := func(l *Lab) error {
		_, err := l.Simulate(ctx, CompilerDual(), l.HeurFlavors)
		return err
	}
	base := func(l *Lab) error {
		_, err := l.Simulate(ctx, pipeline.PaperBase(), nil)
		return err
	}
	seqAll := func(l *Lab) error {
		// The pre-batching grid engine: every cell pays its own
		// architectural execution (materialize + replay).
		for _, sp := range allSpecs(l) {
			_, trace, err := emu.RunTrace(l.Prog.Machine, r.Fuel, true)
			if err != nil && !errors.Is(err, emu.ErrFuel) {
				return err
			}
			sim, err := pipeline.New(sp.Config, l.Prog.Machine, sp.Flavors)
			if err != nil {
				return err
			}
			if _, err := sim.Run(trace); err != nil {
				return err
			}
		}
		return nil
	}
	batchAll := func(l *Lab) error {
		// One streamed architectural execution shared by all five
		// configurations.
		_, _, err := pipeline.BatchReplayContext(ctx, l.Prog.Machine, r.Fuel, chunk, allSpecs(l))
		return err
	}

	for _, e := range []struct {
		name  string
		insts int64
		sim   func(l *Lab) error
	}{
		{"replay-table2", insts, table2},
		{"replay-base", insts, base},
		{"seq-all", insts * 5, seqAll},
		{"batch-all", insts * 5, batchAll},
	} {
		if err := add(e.name, e.insts, e.sim); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// WriteReplayBenchJSON writes doc as indented JSON.
func WriteReplayBenchJSON(w io.Writer, doc *ReplayBenchDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
