package diffcheck

import (
	"testing"

	"elag/internal/asm"
)

// FuzzOptLevels feeds generator seeds to the optimization-level
// differential checker: whatever MC program the seed produces must compile
// at O0, O1 and O2 (with IR verification between passes) and behave
// identically at every level — same output stream, same faults, same final
// global memory. Any seed that trips a violation is a minimized,
// reproducible miscompilation witness.
func FuzzOptLevels(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := GenMC(seed)
		rep, err := CheckOptLevels(src, 2_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if rep.Truncated {
			t.Fatalf("seed %d: generated program exhausted fuel\n%s", seed, src)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	})
}

// FuzzMech feeds generator seeds to the assist-mechanism differential
// checker: whatever program the seed produces, the stride/pcax assist
// mechanisms must hold every replay invariant.
// A tripping seed is a minimized witness against a mechanism's determinism
// or the assist path's timing accounting.
func FuzzMech(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := GenProgram(seed)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("generated program does not assemble: %v\n%s", err, src)
		}
		rep, err := Check(p, Options{Fuel: 200_000, Configs: MechConfigs()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	})
}

// FuzzRandomProgram feeds generator seeds to the full differential
// checker: whatever program the seed produces must assemble, terminate
// under fuel, and replay through every configuration with zero invariant
// violations. The fuzzer explores the generator's whole decision space;
// any seed that trips an invariant is a minimized, reproducible
// counterexample against either the timing model or the emulator.
func FuzzRandomProgram(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := GenProgram(seed)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("generated program does not assemble: %v\n%s", err, src)
		}
		rep, err := Check(p, Options{Fuel: 200_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	})
}
