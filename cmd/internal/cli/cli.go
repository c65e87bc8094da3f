// Package cli holds the build-and-load, flag and error plumbing shared by
// the elag command-line tools, so their flag semantics and error paths
// stay consistent.
package cli

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"elag"
	"elag/internal/workload"
)

// InputKinds documents the argument forms Load accepts, for usage strings.
const InputKinds = "file.{mc,s,bin} | workload:NAME"

// Load reads the tool's program argument and builds it: ".mc" sources are
// compiled (with classification), ".bin" objects are loaded, anything else
// assembles as hand-written assembly. The pseudo-path "workload:NAME"
// compiles a built-in benchmark (e.g. workload:023.eqntott).
func Load(path string) (*elag.Program, error) {
	if name, ok := strings.CutPrefix(path, "workload:"); ok {
		w := workload.Get(name)
		if w == nil {
			var names []string
			for _, w := range workload.All() {
				names = append(names, w.Name)
			}
			return nil, fmt.Errorf("unknown workload %q (have: %s)", name,
				strings.Join(names, ", "))
		}
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("build workload %s: %w", name, err)
		}
		return p, nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read input: %w", err)
	}
	var p *elag.Program
	switch {
	case strings.HasSuffix(path, ".mc"):
		p, err = elag.Build(string(src), elag.BuildOptions{})
	case strings.HasSuffix(path, ".bin"):
		p, err = elag.LoadObject(src)
	default:
		p, err = elag.BuildAsm(string(src), true, elag.ClassifyOptions{})
	}
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", path, err)
	}
	return p, nil
}

// Fatal reports err on stderr (flagging architectural faults as such) and
// exits 1.
func Fatal(tool string, err error) {
	var f *elag.Fault
	if errors.As(err, &f) {
		fmt.Fprintf(os.Stderr, "%s: architectural fault: %v\n", tool, err)
	} else {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	os.Exit(1)
}
