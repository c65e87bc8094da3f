// elag-prof runs the paper's address profiler (Section 4.3) over a program
// and prints per-load prediction rates plus the reclassification the
// profile would drive (NT loads above the threshold become PD).
//
// Usage:
//
//	elag-prof [flags] file.{mc,s,bin} | workload:NAME
//
//	-fuel N        dynamic instruction budget (0 = the 200M default)
//	-threshold F   promotion threshold (default 0.60)
//	-all           list every load, not just the reclassified ones
//	-parallel N    GOMAXPROCS for the run
//	-cpuprofile f  write a CPU profile
//	-memprofile f  write a heap profile at exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"elag"
	"elag/cmd/internal/cli"
	"elag/internal/core"
)

func main() {
	fuel := flag.Int64("fuel", 0, "dynamic instruction budget (0 = the 200M default)")
	threshold := flag.Float64("threshold", 0.60, "NT->PD promotion threshold")
	all := flag.Bool("all", false, "list every load")
	perf := cli.PerfFlags(false)
	flag.Parse()
	perf.Start("elag-prof")
	defer perf.Stop()
	ctx := perf.Context()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: elag-prof [flags]", cli.InputKinds)
		flag.PrintDefaults()
		os.Exit(2)
	}
	p, err := cli.Load(flag.Arg(0))
	if err != nil {
		cli.Fatal("elag-prof", err)
	}
	lp, err := p.ProfileContext(ctx, *fuel)
	if err != nil && !errors.Is(err, elag.ErrFuel) {
		perf.CheckContext(err)
		cli.Fatal("elag-prof", fmt.Errorf("profile: %w", err))
	}
	before := p.Classes
	after := core.Reclassify(before, lp.Rates(), *threshold)

	fmt.Printf("heuristics:   %s\n", before)
	fmt.Printf("with profile: %s\n", after)
	fmt.Printf("%6s %-4s %-4s %10s %8s  %s\n", "pc", "old", "new", "execs", "rate", "instruction")
	var pcs []int
	for pc := range lp.Execs {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		o, n := before.Class(pc), after.Class(pc)
		if !*all && o == n {
			continue
		}
		rate, _ := lp.Rate(pc)
		fmt.Printf("%6d %-4s %-4s %10d %7.1f%%  %s\n",
			pc, o, n, lp.Execs[pc], 100*rate, p.Machine.Insts[pc].String())
	}
}
