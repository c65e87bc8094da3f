package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"elag/internal/asm/asmtest"
	"elag/internal/emu"
)

// TestPortWindowMatchesMap: random walks over fresh port windows, each
// from its own first cycle, the oldest live cycle advancing and ports
// taken near it or up to 999 cycles past it, answer every tryUse as a map
// of per-cycle counts does, and double from 64 slots to exactly the 1,024
// that span needs. A fixed 64-slot ring that reuses a live cycle's slot
// fails it, and so does a doubling that copies never-stamped slots.
func TestPortWindowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for walk := range 3000 {
		ports := uint8(1 + walk%3)
		w := portWindow{slots: make([]portSlot, portWindowSlots), cap: ports}
		ref := map[int64]uint8{}
		oldest := 1 + rng.Int63n(1<<16)
		for step := range 200 {
			oldest += int64(rng.Intn(2))
			cycle := oldest + int64(rng.Intn(4))
			if rng.Intn(2) == 0 {
				cycle = oldest + int64(rng.Intn(1000))
			}
			want := ref[cycle] < ports
			if want {
				ref[cycle]++
			}
			if got := w.tryUse(cycle, oldest); got != want {
				t.Fatalf("walk %d (%d ports), step %d: tryUse(%d, oldest %d) = %v, want %v (%d slots)",
					walk, ports, step, cycle, oldest, got, want, len(w.slots))
			}
		}
		if len(w.slots) != 1024 {
			t.Fatalf("walk %d: the window ended with %d slots, want 1024", walk, len(w.slots))
		}
	}
}

// memStreak is a loop body of 24 independent memory operations off r20:
// stores of r0, and loads in all three flavours into registers nothing
// reads.
func memStreak() string {
	var b strings.Builder
	for i := range 24 {
		if i%2 == 0 {
			fmt.Fprintf(&b, "\tst8 r0, r20(%d)\n", 8*i)
		} else {
			fmt.Fprintf(&b, "\tld8_%c r%d, r20(%d)\n", "npe"[i/2%3], 22+i/2, 8*i)
		}
	}
	return b.String()
}

// TestPortQueueRunsAheadOfIssue: on a 6-wide machine with one data-cache
// port, a loop of independent loads and stores issues several memory
// operations a cycle while MEM takes one, so MEM reservations queue
// hundreds of cycles ahead of issue and the port window must grow. Every
// machine replays, at chunk sizes 1, 7 and 4096, to metrics frozen from
// the 4,096-cycle rings the window replaced, which were exact here.
func TestPortQueueRunsAheadOfIssue(t *testing.T) {
	type frozen struct{ cycles, latSum, noPort int64 }
	want := []frozen{
		{978, 177178, 0},
		{978, 177178, 468},
		{978, 177178, 478},
		{978, 177178, 473},
		{978, 177178, 314},
	}
	p := asmtest.MustAssemble(t, loopOf(40, memStreak()))
	var specs []BatchSpec
	for _, cfg := range machines() {
		cfg.MemPorts = 1
		specs = append(specs, BatchSpec{Config: cfg})
	}
	_, trace, err := emu.RunTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim := mustSim(t, specs[0].Config, p)
	if _, err := sim.Run(trace); err != nil {
		t.Fatal(err)
	}
	if len(sim.ports.slots) <= portWindowSlots {
		t.Fatalf("the port window kept %d slots: MEM never queued past it", len(sim.ports.slots))
	}
	for _, chunk := range []int{1, 7, 4096} {
		ms, _, err := Replay(context.Background(), p, specs, Options{Chunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range ms {
			got := frozen{m.Cycles, m.LoadLatencySum, m.Predict.NoPort + m.Early.NoPort}
			if got != want[i] {
				t.Errorf("chunk %d, %s: got %+v, want %+v", chunk, Machines[i].Name, got, want[i])
			}
		}
	}
}

// stallBody makes instructions converge on one issue cycle: everything
// after the divide's consumer is ready before it, so in-order issue packs
// it behind that consumer, more of it than four ALUs, two FP units and
// six issue slots take in one cycle.
const stallBody = `
	div r1, r9, 3
	add r2, r1, 1
	add r3, r9, 1
	add r4, r9, 2
	add r5, r9, 3
	add r6, r9, 4
	ld8_p r7, r20(0)
	ld8_e r8, r21(0)
	st8 r9, r21(8)
	fadd f1, f2, f3
	fadd f4, f5, f6
	fadd f7, f8, f9
	ld8_n r10, r20(16)
`

// TestWidthAndFUStallsLastOneCycle: issue is in order and takes issue
// slots and units only at the issue cycle, so a full group or a busy unit
// delays an instruction by exactly one cycle, under every machine.
func TestWidthAndFUStallsLastOneCycle(t *testing.T) {
	p := asmtest.MustAssemble(t, loopOf(500, stallBody))
	_, trace, err := emu.RunTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range machines() {
		log := &eventLog{}
		sim := mustSim(t, cfg, p)
		sim.AttachSink(log)
		if _, err := sim.Run(trace); err != nil {
			t.Fatal(err)
		}
		seen := map[StallCause]int{}
		for _, ev := range log.events {
			if ev.Kind != EvStall || ev.Cause == StallOperand {
				continue
			}
			seen[ev.Cause]++
			if ev.Cycles != 1 {
				t.Fatalf("%s: %s stall of %d cycles at instruction %d", Machines[i].Name, ev.Cause, ev.Cycles, ev.Seq)
			}
		}
		if seen[StallIssueWidth] == 0 || seen[StallFU] == 0 {
			t.Errorf("%s: stalls by cause %v, want issue-width and FU stalls", Machines[i].Name, seen)
		}
	}
}
