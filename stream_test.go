// Golden equivalence tests for the streaming trace engine: on every
// embedded workload, at chunk sizes from pathological (1) through awkward
// (7) to default (4096) and degenerate (longer than the whole trace), the
// streamed execution must reproduce the materialized one bit for bit —
// trace entries, timing metrics, and the cycle-level event stream alike.
package elag_test

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"reflect"

	"elag"
	"elag/internal/emu"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// streamChunkSizes is the golden chunk-size matrix. The final entry is
// larger than any trace the test fuel can produce, so the whole run lands
// in one partial chunk.
func streamChunkSizes(traceLen int) []int {
	return []int{1, 7, 4096, traceLen + 1}
}

func buildWorkload(t *testing.T, w *workload.Workload) *elag.Program {
	t.Helper()
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		t.Fatalf("%s: build: %v", w.Name, err)
	}
	return p
}

// TestStreamTraceChunkEquivalence: concatenating StreamTrace's chunks
// reproduces the materialized trace entry for entry — PC, sequence number,
// effective address, branch outcome — at every chunk size, along with the
// architectural result. The fuel truncates some workloads and lets others
// halt, so both termination paths flush their final partial chunk.
func TestStreamTraceChunkEquivalence(t *testing.T) {
	fuel := int64(400_000)
	if testing.Short() {
		fuel = 60_000
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := buildWorkload(t, w)
			res, trace, err := emu.RunTrace(p.Machine, fuel)
			if err != nil && !errors.Is(err, emu.ErrFuel) {
				t.Fatalf("materialized run: %v", err)
			}
			for _, chunk := range streamChunkSizes(trace.Len()) {
				off := 0
				sres, serr := emu.StreamTrace(p.Machine, fuel, chunk, func(c *emu.Trace) error {
					if c.Seq0 != int64(off) {
						t.Fatalf("chunk=%d: Seq0 %d at offset %d", chunk, c.Seq0, off)
					}
					if c.Len() == 0 || c.Len() > chunk {
						t.Fatalf("chunk=%d: yielded %d entries", chunk, c.Len())
					}
					if off+c.Len() > trace.Len() {
						t.Fatalf("chunk=%d: stream overruns trace (%d > %d)",
							chunk, off+c.Len(), trace.Len())
					}
					for i := 0; i < c.Len(); i++ {
						if got, want := c.At(i), trace.At(off+i); got != want {
							t.Fatalf("chunk=%d entry %d: stream %+v != trace %+v",
								chunk, off+i, got, want)
						}
					}
					off += c.Len()
					return nil
				})
				if serr != nil && !errors.Is(serr, emu.ErrFuel) {
					t.Fatalf("chunk=%d: stream: %v", chunk, serr)
				}
				if (err == nil) != (serr == nil) {
					t.Fatalf("chunk=%d: stream error %v, materialized %v", chunk, serr, err)
				}
				if off != trace.Len() {
					t.Fatalf("chunk=%d: stream produced %d entries, trace has %d",
						chunk, off, trace.Len())
				}
				if sres.DynamicInsts != res.DynamicInsts || sres.Output() != res.Output() {
					t.Fatalf("chunk=%d: architectural result diverged: %d insts %q vs %d insts %q",
						chunk, sres.DynamicInsts, sres.Output(), res.DynamicInsts, res.Output())
				}
			}
		})
	}
}

// TestStreamBoundedMemory is the tentpole's memory guarantee, demonstrated
// at scale: a 20M-instruction run of the stress kernel — whose materialized
// trace would occupy ~500 MB — simulated through 64K-entry streamed chunks
// must keep the peak heap under 128 MB. Skipped in -short.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("20M-instruction run; skipped in -short")
	}
	src, err := os.ReadFile("testdata/stress.mc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := elag.Build(string(src), elag.BuildOptions{})
	if err != nil {
		t.Fatalf("build stress.mc: %v", err)
	}
	const fuel = 20_000_000
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
	m, res := observe(t, p, elag.BatchSpec{Config: elag.CompilerDirectedConfig()}, fuel, 65536)
	close(stop)
	<-done
	if res.DynamicInsts != fuel {
		t.Fatalf("expected the fuel budget to truncate: ran %d insts, fuel %d",
			res.DynamicInsts, fuel)
	}
	if m.Insts != fuel {
		t.Fatalf("timing model retired %d of %d streamed instructions", m.Insts, fuel)
	}
	const bound = 128 << 20
	if peak > bound {
		t.Fatalf("peak heap %d MB exceeds %d MB streaming bound (materialized trace would be ~%d MB)",
			peak>>20, bound>>20, fuel*25>>20)
	}
	t.Logf("20M insts streamed: %d cycles, peak heap %.1f MB", m.Cycles, float64(peak)/(1<<20))
}

// TestStageViewEmulatesOnlyDrawn: a stage view draws n instructions, so
// it emulates only those. At a fuel far beyond n it allocates less than a
// small bound — a 5M-instruction trace would be ~125 MB — and it draws
// exactly what a view at fuel n draws.
func TestStageViewEmulatesOnlyDrawn(t *testing.T) {
	src, err := os.ReadFile("testdata/stress.mc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := elag.Build(string(src), elag.BuildOptions{})
	if err != nil {
		t.Fatalf("build stress.mc: %v", err)
	}
	cfg := elag.CompilerDirectedConfig()
	const n = 50
	want, err := p.StageView(cfg, n, n)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := p.StageView(cfg, 5_000_000, n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("view at fuel 5M differs from view at fuel %d:\n%s\nwant:\n%s", n, got, want)
	}
	const bound = 8 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Errorf("StageView of %d instructions allocated %.1f MB, want < %d MB",
			n, float64(alloc)/(1<<20), bound>>20)
	}
}

// TestStreamSimulateGolden: the timing metrics and the complete cycle-level
// event stream of a streamed simulation are bit-identical to one Sim.Run
// over the materialized trace, on every workload at every chunk size.
func TestStreamSimulateGolden(t *testing.T) {
	fuel := int64(60_000)
	if testing.Short() {
		fuel = 20_000
	}
	cfg := elag.CompilerDirectedConfig()
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := buildWorkload(t, w)
			recM := &elag.TraceRecorder{}
			wantRes, trace, err := emu.RunTrace(p.Machine, fuel)
			if err != nil && !errors.Is(err, emu.ErrFuel) {
				t.Fatalf("materialized run: %v", err)
			}
			sims, err := pipeline.NewBatch(p.Machine,
				[]pipeline.BatchSpec{{Config: cfg, Sink: recM, PerPC: true}})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sims[0].Run(trace)
			if err != nil {
				t.Fatalf("materialized simulate: %v", err)
			}
			for _, chunk := range streamChunkSizes(int(wantRes.DynamicInsts)) {
				rec := &elag.TraceRecorder{}
				got, gotRes := observe(t, p, elag.BatchSpec{Config: cfg, Sink: rec, PerPC: true}, fuel, chunk)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk=%d: metrics diverged: %d cycles vs %d",
						chunk, got.Cycles, want.Cycles)
				}
				if gotRes.Output() != wantRes.Output() {
					t.Fatalf("chunk=%d: architectural output diverged", chunk)
				}
				if len(rec.Events) != len(recM.Events) {
					t.Fatalf("chunk=%d: %d events vs %d", chunk, len(rec.Events), len(recM.Events))
				}
				for i := range rec.Events {
					if rec.Events[i] != recM.Events[i] {
						t.Fatalf("chunk=%d event %d: %+v != %+v",
							chunk, i, rec.Events[i], recM.Events[i])
					}
				}
			}
		})
	}
}
