package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"elag/internal/asm/asmtest"
	"elag/internal/emu"
	"elag/internal/isa"
)

// eventLog is an EventSink keeping a copy of every event, in order.
type eventLog struct{ events []Event }

func (l *eventLog) Event(ev *Event) { l.events = append(l.events, *ev) }

// panicSink panics on its n-th event: a stand-in for a simulator bug
// that surfaces inside a lane.
type panicSink struct{ n int }

func (s *panicSink) Event(*Event) {
	if s.n--; s.n == 0 {
		panic("sink fault")
	}
}

// retireSink keeps the highest sequence number its sim retired, and
// calls cancel, if set, when the sim retires instruction at.
type retireSink struct {
	last   int64
	at     int64
	cancel func()
}

func (s *retireSink) Event(ev *Event) {
	if ev.Kind != EvRetire {
		return
	}
	s.last = max(s.last, ev.Seq)
	if s.cancel != nil && ev.Seq == s.at {
		s.cancel()
	}
}

// machines is a batch shaped like elag-sim -all's: the five paper
// machines at their default geometries, enough to give each of four lanes
// a sim.
func machines() []Config {
	var cfgs []Config
	for _, m := range Machines {
		cfgs = append(cfgs, m.Select.Config(m.Table, m.Regs))
	}
	return cfgs
}

// settleGoroutines waits for the goroutine count to fall back to before:
// Replay has waited for its lanes, but one may still be unwinding.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("lane leak: %d goroutines, %d before\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplay: Replay's streamed emulation, at chunk sizes from
// pathological (1) to longer than the whole trace, reproduces one Sim.Run
// per spec over the materialized trace — metrics including the per-PC
// table, the event stream, and the architectural result.
// OnChunk accounts for every replayed entry, and a ctx cancelled by
// OnChunk stops the replay with the ctx error and no further report. The
// fuel truncates the program, so the fuel-exhaustion flush is covered too.
// The lanes legs replay a five-machine batch on 1, 2 and 4 lanes to fuel
// exhaustion, through an emulator fault partway through a chunk, into a
// panicking sink and into a ctx cancelled mid-chunk by a sink; every lane
// must match the serial reference, stop within its ring bound and exit.
func TestReplay(t *testing.T) {
	p := asmtest.MustAssemble(t, loopOf(3000, obsProgBody))
	const fuel = 20_000
	res, trace, err := emu.RunTrace(p, fuel)
	if !errors.Is(err, emu.ErrFuel) {
		t.Fatalf("reference run: err %v, want fuel truncation", err)
	}
	// specs observes the compiler-directed cell into log; the base cell
	// rides along unobserved except for its per-PC table.
	specs := func(log *eventLog) []BatchSpec {
		return []BatchSpec{
			{Config: Config{}, PerPC: true},
			{Config: obsConfig(), Sink: log, PerPC: true},
		}
	}
	wantLog := &eventLog{}
	var want []*Metrics
	for _, sp := range specs(wantLog) {
		sim := mustSim(t, sp.Config, p)
		sim.EnablePerPC()
		if sp.Sink != nil {
			sim.AttachSink(sp.Sink)
		}
		m, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}

	for _, chunk := range []int{1, 7, 4096, trace.Len() + 1} {
		t.Run(fmt.Sprintf("streamed/chunk=%d", chunk), func(t *testing.T) {
			log := &eventLog{}
			var done, sum int64
			o := Options{Fuel: fuel, Chunk: chunk,
				OnChunk: func(d int64, n int) {
					if n <= 0 || n > chunk {
						t.Fatalf("OnChunk got a %d-entry chunk", n)
					}
					sum += int64(n)
					done = d
				}}
			ms, gotRes, err := Replay(context.Background(), p, specs(log), o)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			for i := range want {
				if !reflect.DeepEqual(ms[i], want[i]) {
					t.Fatalf("spec %d: metrics diverged: %d cycles vs %d",
						i, ms[i].Cycles, want[i].Cycles)
				}
			}
			if !reflect.DeepEqual(log.events, wantLog.events) {
				t.Fatalf("event stream diverged: %d events vs %d",
					len(log.events), len(wantLog.events))
			}
			if done != int64(trace.Len()) || sum != done {
				t.Fatalf("OnChunk accounted done=%d sum=%d of %d entries",
					done, sum, trace.Len())
			}
			if gotRes.DynamicInsts != res.DynamicInsts || gotRes.Output() != res.Output() {
				t.Fatalf("architectural result diverged: %d insts vs %d",
					gotRes.DynamicInsts, res.DynamicInsts)
			}

			// Cancel after the first chunk: no further chunk is
			// reported, and a run with more chunks ahead must stop with
			// the ctx error.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			o.OnChunk = func(int64, int) { calls++; cancel() }
			_, _, err = Replay(ctx, p, specs(&eventLog{}), o)
			if calls != 1 {
				t.Fatalf("replayed %d chunks after cancellation, want 1", calls)
			}
			if chunk < trace.Len() && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled replay: err %v, want context.Canceled", err)
			}
		})
	}
	// divide ends the loop with a division by zero, 4803 instructions in:
	// partway through the fifth 1024-entry chunk.
	divide := asmtest.MustAssemble(t, strings.Replace(loopOf(600, obsProgBody),
		"halt r0", "div r1, r1, r0\n\t\thalt r0", 1))
	legs := []struct {
		name    string
		prog    *isa.Program
		fuel    int64
		wantErr error // nil: a fuel-truncated replay succeeds
	}{
		{"fuel", p, 6000, nil},
		{"fault", divide, 0, &isa.Fault{Kind: isa.FaultDivZero}},
	}
	for _, procs := range []int{1, 2, 4} {
		for _, leg := range legs {
			t.Run(fmt.Sprintf("lanes=%d/%s", procs, leg.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				before := runtime.NumGoroutine()
				_, trace, err := emu.RunTrace(leg.prog, leg.fuel)
				if err == nil {
					t.Fatal("reference run ended cleanly, want a fault")
				}
				var specs []BatchSpec
				var want []*Metrics
				var logs, wantLogs []*eventLog
				for _, cfg := range machines() {
					log, wantLog := &eventLog{}, &eventLog{}
					specs = append(specs, BatchSpec{Config: cfg, Sink: log, PerPC: true})
					logs, wantLogs = append(logs, log), append(wantLogs, wantLog)
					sim := mustSim(t, cfg, leg.prog)
					sim.EnablePerPC()
					sim.AttachSink(wantLog)
					m, err := sim.Run(trace)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, m)
				}
				var done int64
				ms, _, err := Replay(context.Background(), leg.prog, specs, Options{
					Fuel: leg.fuel, Chunk: 1024, OnChunk: func(d int64, _ int) { done = d }})
				if leg.wantErr == nil {
					if err != nil {
						t.Fatalf("replay: %v", err)
					}
					for i := range want {
						if !reflect.DeepEqual(ms[i], want[i]) {
							t.Fatalf("spec %d: metrics diverged: %d cycles vs %d",
								i, ms[i].Cycles, want[i].Cycles)
						}
					}
				} else if !errors.Is(err, leg.wantErr) {
					t.Fatalf("replay: err %v, want %v", err, leg.wantErr)
				}
				// The event streams show that every lane replayed every
				// chunk, the flushed partial one included.
				for i := range logs {
					if !reflect.DeepEqual(logs[i].events, wantLogs[i].events) {
						t.Fatalf("spec %d: event stream diverged: %d events vs %d",
							i, len(logs[i].events), len(wantLogs[i].events))
					}
				}
				if done != int64(trace.Len()) {
					t.Fatalf("OnChunk accounted %d of %d entries", done, trace.Len())
				}
				settleGoroutines(t, before)
			})
		}
		// A panic in a lane is re-raised on Replay's goroutine, where the
		// caller can recover it, and no lane is left behind.
		t.Run(fmt.Sprintf("lanes=%d/panic", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := runtime.NumGoroutine()
			var specs []BatchSpec
			for _, cfg := range machines() {
				specs = append(specs, BatchSpec{Config: cfg})
			}
			specs[3].Sink = &panicSink{n: 10_000} // lane 1 of 2, lane 3 of 4
			got := func() (r any) {
				defer func() { r = recover() }()
				Replay(context.Background(), p, specs, Options{Fuel: 6000, Chunk: 1024})
				return nil
			}()
			if msg, _ := got.(string); !strings.Contains(msg, "sink fault") {
				t.Fatalf("recovered %v, want the lane's panic", got)
			}
			settleGoroutines(t, before)
		})
		// A sink cancels ctx partway through chunk c, outside OnChunk,
		// while the emulator and the other lanes may have run ahead. The
		// cancelling sim stops after chunk c, the others within the ring
		// (chunk c+depth-1), and no chunk that ended after the cancel is
		// reported.
		t.Run(fmt.Sprintf("lanes=%d/cancel", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			before := runtime.NumGoroutine()
			const chunk, c = 1024, 3
			depth := emu.RingDepth(chunk)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var specs []BatchSpec
			var sinks []*retireSink
			for _, cfg := range machines() {
				sink := &retireSink{}
				specs = append(specs, BatchSpec{Config: cfg, Sink: sink})
				sinks = append(sinks, sink)
			}
			sinks[3].at, sinks[3].cancel = c*chunk+chunk/2, cancel // lane 1 of 2, lane 3 of 4
			var reported int64
			_, _, err := Replay(ctx, p, specs, Options{Fuel: fuel, Chunk: chunk,
				OnChunk: func(d int64, _ int) { reported = d }})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("replay: err %v, want context.Canceled", err)
			}
			if reported > c*chunk {
				t.Fatalf("OnChunk reported %d entries, want none past chunk %d (%d)", reported, c-1, c*chunk)
			}
			for i, sink := range sinks {
				bound := int64(c+depth)*chunk - 1
				if i == 3 {
					bound = (c+1)*chunk - 1
				}
				if sink.last > bound {
					t.Fatalf("spec %d retired instruction %d after the cancel, want none past %d",
						i, sink.last, bound)
				}
			}
			if sinks[3].last < sinks[3].at {
				t.Fatalf("cancelling spec retired only %d instructions", sinks[3].last)
			}
			settleGoroutines(t, before)
		})
	}
}

// allocsPerRun is testing.AllocsPerRun without its pin of GOMAXPROCS to
// 1, which would leave Replay a single lane: the mallocs and the bytes
// (MemStats.TotalAlloc) per call of f, averaged over runs calls, after ten
// warm-up calls. Each result is the least of ten such averages; an
// allocation made per chunk shows in every one of them. Before each window
// stockFreeLists fills the runtime's free lists, which several lanes
// otherwise drain now and then (see there). The collector is paused while a
// window is measured: a collection discards the half-used 16-byte block
// that allocations under 16 bytes share (NewBatch makes hundreds), so where
// one lands moves a window's bytes by 16 with the mallocs unchanged.
func allocsPerRun(runs int, f func()) (mallocs, bytes uint64) {
	for range 10 {
		f()
	}
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for range 10 {
		var before, after runtime.MemStats
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		stockFreeLists()
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gcPercent)
		mallocs = min(mallocs, (after.Mallocs-before.Mallocs)/uint64(runs))
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return mallocs, bytes
}

// stockFreeLists parks 256 goroutines on a channel and releases them. A
// lane goroutine and a parked goroutine's wait record (sudog) come from a
// per-CPU free list, refilled from a shared one, and go back to the list of
// the CPU they end on, so with several lanes one CPU's list can run dry and
// the runtime allocates a new one; a collection also empties the shared
// list of wait records. Afterwards the lists hold far more of both than a
// window of Replay calls takes.
func stockFreeLists() {
	var started, exited sync.WaitGroup
	release := make(chan struct{})
	for range 256 {
		started.Add(1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			started.Done()
			<-release
		}()
	}
	started.Wait()
	close(release)
	exited.Wait()
}

// TestReplayAllocs: Replay allocates per call, never per chunk or per
// instruction — its lanes start once and are fed over channels, and its
// chunk buffers are sized once — so replaying a batch for 40 chunks
// allocates exactly as often, and as many bytes, as for 4, on one lane and
// on four. The per-call totals (NewBatch's sims, the emulator and its
// ring, the lanes) stay under fixed bounds.
func TestReplayAllocs(t *testing.T) {
	// Measured with go1.24 on linux/amd64: 114 allocations and 768,209
	// bytes on one lane, 129 and about 769,700 on four. Five sims that
	// each start with a 4,096-cycle port window would exceed byteBound.
	const allocBound, byteBound = 150, 1 << 20
	// Four lanes may differ by the runtime's free-list refills (see
	// stockFreeLists), which are smaller than 36 extra chunks' buffers.
	const laneSlack = 1 << 10
	// 48,000 instructions, so both runs end by fuel exhaustion.
	p := asmtest.MustAssemble(t, loopOf(6000, obsProgBody))
	var specs []BatchSpec
	for _, cfg := range machines() {
		specs = append(specs, BatchSpec{Config: cfg})
	}
	const chunk = 1000
	replay := func(chunks int) func() {
		return func() {
			if _, _, err := Replay(context.Background(), p, specs,
				Options{Fuel: int64(chunks * chunk), Chunk: chunk}); err != nil {
				t.Fatal(err)
			}
		}
	}
	perLanes := map[int]uint64{}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			few, fewBytes := allocsPerRun(5, replay(4))
			many, manyBytes := allocsPerRun(5, replay(40))
			if few != many {
				t.Errorf("GOMAXPROCS %d: %d allocs at 4 chunks, %d at 40", procs, few, many)
			}
			slack := uint64(0)
			if procs > 1 {
				slack = laneSlack
			}
			if max(fewBytes, manyBytes)-min(fewBytes, manyBytes) > slack {
				t.Errorf("GOMAXPROCS %d: %d bytes at 4 chunks, %d at 40", procs, fewBytes, manyBytes)
			}
			if few > allocBound {
				t.Errorf("GOMAXPROCS %d: %d allocs per Replay, bound %d", procs, few, allocBound)
			}
			if fewBytes > byteBound {
				t.Errorf("GOMAXPROCS %d: %d bytes per Replay, bound %d", procs, fewBytes, byteBound)
			}
			perLanes[procs] = few
		}()
	}
	// At one lane the measurement is testing.AllocsPerRun's own; at four
	// it must count the extra lanes, or the pin was not avoided.
	if ref := testing.AllocsPerRun(10, replay(40)); float64(perLanes[1]) != ref {
		t.Fatalf("one lane: %d allocs, testing.AllocsPerRun says %v", perLanes[1], ref)
	}
	if perLanes[4] <= perLanes[1] {
		t.Fatalf("four lanes allocate %d, one lane %d: lanes not started", perLanes[4], perLanes[1])
	}
}
