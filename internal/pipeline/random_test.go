package pipeline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"elag/internal/asm"
	"elag/internal/emu"
	"elag/internal/mech"
)

// genProgram builds a random but well-formed program: a loop over a mix of
// ALU ops, loads, stores and data-dependent branches, seeded
// deterministically so failures reproduce.
func genProgram(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("\t.data\nbuf:\t.space 4096\n\t.text\n")
	b.WriteString("main:\tli r9, 0\n\tli r20, buf\n\tli r21, buf+2048\n")
	b.WriteString("loop:\n")
	n := 3 + rng.Intn(10)
	flavors := []string{"n", "p", "e"}
	for i := 0; i < n; i++ {
		r1 := 1 + rng.Intn(8)
		r2 := 1 + rng.Intn(8)
		rd := 1 + rng.Intn(8)
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "\tadd r%d, r%d, r%d\n", rd, r1, r2)
		case 1:
			fmt.Fprintf(&b, "\txor r%d, r%d, %d\n", rd, r1, rng.Intn(1000))
		case 2:
			fmt.Fprintf(&b, "\tld8_%s r%d, r2%d(%d)\n",
				flavors[rng.Intn(3)], rd, rng.Intn(2), rng.Intn(64)*8)
		case 3:
			fmt.Fprintf(&b, "\tst8 r%d, r2%d(%d)\n", r1, rng.Intn(2), rng.Intn(64)*8)
		case 4:
			fmt.Fprintf(&b, "\tand r%d, r%d, 7\n", rd, r1)
			fmt.Fprintf(&b, "\tbeq r%d, %d, skip%d\n", rd, rng.Intn(8), i)
			fmt.Fprintf(&b, "\tadd r%d, r%d, 1\n", rd, rd)
			fmt.Fprintf(&b, "skip%d:\n", i)
		case 5:
			fmt.Fprintf(&b, "\tmul r%d, r%d, 3\n", rd, r1)
		}
	}
	b.WriteString("\tadd r9, r9, 1\n\tblt r9, 500, loop\n\thalt r9\n")
	return b.String()
}

// TestRandomProgramsAllConfigsAgree: for randomly generated programs, every
// hardware configuration must replay the same trace without error, produce
// the same architectural result, and never beat the issue-width bound.
func TestRandomProgramsAllConfigsAgree(t *testing.T) {
	cfgs := []Config{
		{},
		{Select: SelCompiler, Mechanisms: []mech.Spec{predSpec(64), rcSpec(1)}},
		{Select: SelAllPredict, Mechanisms: []mech.Spec{predSpec(16)}},
		{Select: SelAllEarly, Mechanisms: []mech.Spec{rcSpec(4)}},
		{Select: SelHWDual, Mechanisms: []mech.Spec{predSpec(64), rcSpec(4)}},
	}
	for seed := int64(1); seed <= 25; seed++ {
		src := genProgram(seed)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		res, trace, err := emu.RunTrace(p, 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: emulate: %v", seed, err)
		}
		var baseCycles int64
		for ci, cfg := range cfgs {
			m, err := mustSim(t, cfg, p).Run(trace)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			if m.Insts != res.DynamicInsts {
				t.Fatalf("seed %d cfg %d: inst count %d != %d",
					seed, ci, m.Insts, res.DynamicInsts)
			}
			if m.Cycles < m.Insts/6 {
				t.Errorf("seed %d cfg %d: IPC above issue width", seed, ci)
			}
			if ci == 0 {
				baseCycles = m.Cycles
			} else if m.Cycles > baseCycles*3/2 {
				// Early address generation consumes only spare
				// ports; it must never slow a program down by
				// anything close to 50%.
				t.Errorf("seed %d cfg %d: %d cycles vs base %d",
					seed, ci, m.Cycles, baseCycles)
			}
		}
	}
}
