// elag-cc compiles MC source (a small C subset, see package mcc) to the
// repository's assembly, running the classical optimizations and the
// paper's load-classification heuristics.
//
// Usage:
//
//	elag-cc [flags] file.mc
//
//	-o file        write assembly to file (default stdout)
//	-obj file      also write an ELAG object file (.bin, loadable by elag-sim)
//	-O level       optimization level: 0, 1 or 2 (default 2)
//	-passes spec   explicit pass pipeline, e.g. "fixpoint(constprop,dce),lower"
//	-pass-stats f  write per-pass statistics JSON (elag-passes/v1); "-" = stderr
//	-dump-ir pass  print the IR after every run of the named pass
//	-no-classify   leave every load as ld_n
//	-ec-groups N   give N base-register groups ld_e (default 1)
//	-additive      use the paper's literal additive S_load fixpoint
//	-dump-classes  print per-load classes with the deciding heuristic
//	-structure     print the machine-level CFG/loop structure
//	-help-passes   list the registered passes and exit
package main

import (
	"flag"
	"fmt"
	"os"

	"elag"
	"elag/internal/asm"
	"elag/internal/core"
	"elag/internal/passman"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	obj := flag.String("obj", "", "also write an ELAG object file")
	optLevel := flag.String("O", "", "optimization level: 0, 1 or 2 (default 2)")
	passes := flag.String("passes", "", "explicit pass pipeline spec (overrides -O)")
	passStats := flag.String("pass-stats", "", `write per-pass statistics JSON to file ("-" for stderr)`)
	dumpIR := flag.String("dump-ir", "", "print IR after every run of the named pass")
	noClassify := flag.Bool("no-classify", false, "leave every load as ld_n")
	ecGroups := flag.Int("ec-groups", 1, "base-register groups assigned ld_e")
	additive := flag.Bool("additive", false, "use the paper's additive S_load fixpoint")
	dumpClasses := flag.Bool("dump-classes", false, "print per-load classes with the deciding heuristic")
	structure := flag.Bool("structure", false, "print machine CFG/loop structure")
	helpPasses := flag.Bool("help-passes", false, "list registered passes and exit")
	flag.Parse()

	if *helpPasses {
		for _, n := range passman.Names() {
			fmt.Printf("  %-18s %s\n", n, passman.Describe(n))
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: elag-cc [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(fmt.Errorf("read input: %w", err))
	}
	opts := elag.BuildOptions{
		DisableClassify: *noClassify,
		Passes:          *passes,
		DumpIR:          *dumpIR,
		Classify: elag.ClassifyOptions{
			MaxECGroups:   *ecGroups,
			AdditiveSLoad: *additive,
		},
	}
	if *optLevel != "" {
		lvl, err := elag.ParseOptLevel(*optLevel)
		if err != nil {
			fatal(err)
		}
		opts.Level = lvl
	}
	var stats elag.PassStats
	if *passStats != "" {
		opts.Stats = &stats
	}
	p, err := elag.Build(string(src), opts)
	if err != nil {
		fatal(fmt.Errorf("compile %s: %w", flag.Arg(0), err))
	}
	for _, d := range p.PassDumps {
		fmt.Fprintf(os.Stderr, "; IR after %s:\n%s", d.Pass, d.Text)
	}
	if *passStats != "" {
		doc := passman.NewStatsDoc(flag.Arg(0), p.Pipeline, &stats)
		if *passStats == "-" {
			if err := passman.WriteStatsJSON(os.Stderr, doc); err != nil {
				fatal(err)
			}
		} else {
			f, err := os.Create(*passStats)
			if err != nil {
				fatal(fmt.Errorf("create pass-stats file: %w", err))
			}
			if err := passman.WriteStatsJSON(f, doc); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}
	// Re-render the program so classified flavours appear in the output.
	text := p.Asm
	if p.Classes != nil {
		fmt.Fprintf(os.Stderr, "classification: %s\n", p.Classes)
	}
	if *structure {
		fmt.Fprint(os.Stderr, core.DumpStructure(p.Machine))
	}
	if *dumpClasses && p.Classes != nil {
		fmt.Fprint(os.Stderr, core.DumpClasses(p.Machine, p.Classes))
	}
	if *obj != "" {
		buf, err := p.Object()
		if err != nil {
			fatal(fmt.Errorf("encode object: %w", err))
		}
		if err := os.WriteFile(*obj, buf, 0o644); err != nil {
			fatal(fmt.Errorf("write object: %w", err))
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(fmt.Errorf("create output: %w", err))
		}
		defer f.Close()
		w = f
	}
	if p.Classes != nil {
		// Emit re-assemblable source with the classified flavours.
		fmt.Fprint(w, asm.Render(p.Machine))
	} else {
		fmt.Fprint(w, text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elag-cc:", err)
	os.Exit(1)
}
