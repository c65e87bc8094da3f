package mcc_test

import (
	"strings"
	"testing"

	"elag/internal/asm"
	"elag/internal/codegen"
	"elag/internal/mcc"
	"elag/internal/passman"
)

// FuzzCompile drives arbitrary text through the whole MC tool chain:
// front end, optimizer, code generator, assembler. The invariants are
// the robustness contract of the chain:
//
//   - The front end never panics: malformed input produces an error.
//   - Whatever the front end accepts, the optimizer and code generator
//     must handle, and the generated assembly must assemble — an
//     internal error anywhere downstream of a successful parse is a
//     compiler bug, not a user error.
func FuzzCompile(f *testing.F) {
	f.Add("int main() { return 0; }")
	o2 := passman.ForLevel(passman.O2, false)
	optimize := o2[:len(o2)-1] // the IR steps; lowering is checked below
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := mcc.Compile(src)
		if err != nil {
			return // rejected input is the expected outcome
		}
		mgr := passman.Manager{Verify: true}
		if err := mgr.Run(optimize, &passman.State{Module: mod}); err != nil {
			t.Fatalf("optimizer broke IR invariants: %v\nsource: %q", err, src)
		}
		text, err := codegen.Generate(mod)
		if err != nil {
			// The code generator may reject valid-but-unsupported
			// programs, but only with a real diagnostic.
			if strings.TrimSpace(err.Error()) == "" {
				t.Fatalf("codegen rejected program with empty error")
			}
			return
		}
		if _, err := asm.Assemble(text); err != nil {
			t.Fatalf("generated assembly does not assemble: %v\nsource: %q\nassembly:\n%s",
				err, src, text)
		}
	})
}
