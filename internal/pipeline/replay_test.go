package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"elag/internal/asm/asmtest"
	"elag/internal/emu"
)

// eventLog is an EventSink keeping a copy of every event, in order.
type eventLog struct{ events []Event }

func (l *eventLog) Event(ev *Event) { l.events = append(l.events, *ev) }

// TestReplay: Replay's streamed emulation, at chunk sizes from
// pathological (1) to longer than the whole trace, reproduces one Sim.Run
// per spec over the materialized trace — metrics including the per-PC
// table, the event stream, and the architectural result.
// OnChunk accounts for every replayed entry, and a ctx cancelled between
// chunks stops the replay before the next chunk with the ctx error. The
// fuel truncates the program, so the fuel-exhaustion flush is covered too.
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

			// Cancel after the first chunk: no further chunk may be
			// replayed, and a run with more chunks ahead must stop with
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
}
