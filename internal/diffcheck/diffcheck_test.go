package diffcheck

import (
	"testing"

	"elag/internal/asm"
	"elag/internal/asm/asmtest"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/pipeline"
	"elag/internal/workload"

	elag "elag"
)

// TestWorkloads runs the full differential suite on every embedded
// benchmark, with the compiler's own classification cross-checked.
func TestWorkloads(t *testing.T) {
	fuel := int64(100_000)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := elag.Build(w.Source, elag.BuildOptions{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := Check(p.Machine, Options{Fuel: fuel, Classes: p.Classes})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
			if rep.Insts == 0 {
				t.Errorf("workload retired no instructions")
			}
		})
	}
}

// TestRandomPrograms runs the differential suite on 200 seeded random
// programs. Odd seeds are additionally re-classified by the Section 4
// heuristics so the class-accounting checks see compiler-chosen flavours
// too.
func TestRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		src := GenProgram(seed)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		opt := Options{Fuel: 400_000}
		if seed%2 == 1 {
			opt.Classes = core.ClassifyAndApply(p, core.Options{})
		}
		rep, err := Check(p, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// TestGenProgramsTerminate: every generated program must halt on its own,
// well under the checker's fuel — the generator's termination guarantee.
func TestGenProgramsTerminate(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		p := asmtest.MustAssemble(t, GenProgram(seed))
		if _, err := emu.Run(p, 400_000); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestLockstepCatchesTraceCorruption: corrupting one trace entry must be
// caught by the lockstep re-execution — a self-test that the checker can
// actually fail.
func TestLockstepCatchesTraceCorruption(t *testing.T) {
	p := asmtest.MustAssemble(t, GenProgram(3))
	_, trace, err := emu.RunTrace(p, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	trace.EA[trace.Len()/2] += 8
	rep := &Report{}
	checkLockstep(p, trace, rep)
	if rep.Ok() {
		t.Fatal("corrupted trace passed lockstep check")
	}
}

// TestClassMismatchCaught: a classification that disagrees with the
// program's flavours must be flagged.
func TestClassMismatchCaught(t *testing.T) {
	p := asmtest.MustAssemble(t, "main:\tld8_p r1, r2(0)\n\thalt r1")
	cl := &core.Classification{ByPC: map[int]core.Class{0: core.EC}, StaticEC: 1}
	rep := &Report{}
	checkClasses(p, cl, "", rep)
	if rep.Ok() {
		t.Fatal("flavour/class mismatch not caught")
	}
}

// TestWatchdogConfigured: the CPI ceiling must trip on a fabricated
// runaway metric — exercised through checkConfig's arithmetic by a
// degenerate MaxCPI.
func TestWatchdogConfigured(t *testing.T) {
	p := asmtest.MustAssemble(t, GenProgram(7))
	_, trace, err := emu.RunTrace(p, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := emu.Run(p, 400_000)
	rep := &Report{Cycles: map[string]int64{}}
	// MaxCPI of 0 would take the default; force the smallest legal
	// ceiling and expect the watchdog to fire (real CPI > 0.2 always,
	// since issue width is 6 but the program has dependences).
	m := checkConfig(p, NamedConfig{"base", pipeline.Config{}}, trace, &res, 1, rep)
	if m == nil {
		t.Fatal("replay failed")
	}
	if m.Cycles > m.Insts { // only assert when the ceiling is actually exceeded
		found := false
		for _, v := range rep.Violations {
			if v.Check == "watchdog" {
				found = true
			}
		}
		if !found {
			t.Errorf("CPI %f exceeded ceiling 1 but watchdog silent",
				float64(m.Cycles)/float64(m.Insts))
		}
	}
}

// TestFaultingProgramRejected: a program that traps architecturally is
// not checkable; Check must surface the typed fault as an error.
func TestFaultingProgramRejected(t *testing.T) {
	p := asmtest.MustAssemble(t, "main:\tld8_n r1, r2(4)\n\thalt r1")
	p.Insts[0].Imm = 4 // misaligned 8-byte load at address 4
	if _, err := Check(p, Options{Fuel: 100}); err == nil {
		t.Fatal("misaligned program passed Check")
	}
}

// TestTruncatedRunChecked: a fuel-truncated run is still a valid prefix
// and must check clean.
func TestTruncatedRunChecked(t *testing.T) {
	p := asmtest.MustAssemble(t, GenProgram(11))
	rep, err := Check(p, Options{Fuel: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("1000-instruction fuel did not truncate")
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}

// TestDefaultConfigsValid: every default configuration must validate and
// construct, and together they must exercise both paper kinds.
func TestDefaultConfigsValid(t *testing.T) {
	checkConfigs(t, DefaultConfigs(), "addrpred", "earlycalc")
}

// checkConfigs asserts that every configuration in cfgs passes pipeline
// validation and construction, and that together they attach a spec of
// each wanted kind.
func checkConfigs(t *testing.T, cfgs []NamedConfig, wantKinds ...string) {
	t.Helper()
	p := &isa.Program{Insts: []isa.Inst{{Op: isa.OpHalt}},
		Symbols: map[string]int{"main": 0}, DataSymbols: map[string]int64{}}
	kinds := map[string]bool{}
	for _, nc := range cfgs {
		if err := nc.Config.Validate(); err != nil {
			t.Errorf("%s: %v", nc.Name, err)
		}
		if _, err := pipeline.New(nc.Config, p, nil); err != nil {
			t.Errorf("%s: %v", nc.Name, err)
		}
		for _, sp := range nc.Config.Mechanisms {
			kinds[sp.Kind] = true
		}
	}
	for _, want := range wantKinds {
		if !kinds[want] {
			t.Errorf("no configuration exercises a %q spec", want)
		}
	}
}
