// elag-sim runs a program under the functional emulator and the timing
// simulator. Inputs ending in .mc are compiled (with classification),
// ".bin" objects are loaded; anything else is treated as assembly.
//
// Usage:
//
//	elag-sim [flags] file.{mc,s,bin} | workload:NAME
//
//	-config name   base | hw-pred | hw-early | hw-dual | compiler
//	-table N       prediction table entries (default 256)
//	-regs N        early-calculation registers (0 = the machine's default:
//	               16 for hw-early and hw-dual, 1 for compiler)
//	-mech spec     attach an assist mechanism
//	               (kind[:entries[xassoc]], e.g. stride:256 or pcax:256x4);
//	               assists ride on -config base (the default when -mech is
//	               given); the paper kinds addrpred and earlycalc are sized
//	               by -table and -regs instead, and rejected here
//	-help-mechanisms
//	               list the mechanism kinds and exit
//	-fuel N        dynamic instruction budget (0 = the 200M default)
//	-profile       also apply profile-guided reclassification first
//	-v             print the full metrics summary (paths, failure terms)
//	-pipeview N    render the first N instructions' stage timeline
//	-all           compare base and all four early-address configurations
//	               in one batched pass: the program is emulated once, and
//	               the configurations replay each trace chunk on up to
//	               -parallel lanes while the next chunk is emulated
//	-chunk N       stream the trace in N-entry chunks (0 = the default
//	               size; bounded memory; the printed tables are identical
//	               at every setting)
//	-cache-dir d   reuse results from a content-addressed store (default
//	               $ELAG_CACHE_DIR; the same store elag-serve persists
//	               with its -cache-dir, so CLI and daemon runs share it)
//	-nocache       ignore -cache-dir / $ELAG_CACHE_DIR
//	-cpuprofile f  write a CPU profile
//	-memprofile f  write a heap profile at exit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"elag"
	"elag/cmd/internal/cli"
	"elag/internal/artifact"
	"elag/internal/pipeline"
	"elag/internal/serve"
)

func main() {
	config := flag.String("config", "compiler", elag.ConfigNames)
	table := flag.Int("table", 256, "prediction table entries")
	regs := flag.Int("regs", 0, "early-calculation registers (0 = the machine's default: 16 for hw-early and hw-dual, 1 for compiler)")
	mechSpec := flag.String("mech", "", "attach an assist mechanism (kind[:entries[xassoc]], e.g. stride:256); implies -config base. The paper kinds (addrpred, earlycalc) are sized by -table/-regs instead")
	helpMechs := flag.Bool("help-mechanisms", false, "list the mechanism kinds and exit")
	fuel := flag.Int64("fuel", 0, "dynamic instruction budget (0 = the 200M default)")
	useProfile := flag.Bool("profile", false, "apply profile-guided reclassification")
	verbose := flag.Bool("v", false, "print the full metrics summary")
	pipeview := flag.Int("pipeview", 0, "render the first N instructions' pipeline stages")
	all := flag.Bool("all", false, "compare every configuration")
	cacheOpts := cli.CacheFlags()
	perf := cli.PerfFlags(true)
	flag.Parse()

	if *helpMechs {
		fmt.Println("load-acceleration mechanisms (-mech kind[:entries[xassoc]]):")
		for _, kd := range elag.Mechanisms() {
			fmt.Printf("  %-10s %s\n", kd.Kind, kd.Desc)
		}
		return
	}
	if *mechSpec != "" {
		if *all {
			fmt.Fprintln(os.Stderr, "elag-sim: -mech and -all are mutually exclusive")
			os.Exit(2)
		}
		if _, err := elag.ParseMechSpec(*mechSpec); err != nil {
			cli.Fatal("elag-sim", err)
		}
		// Assist mechanisms are mutually exclusive with the paper
		// structures, so an unchanged -config default rides on base; an
		// explicit -config is kept and validated at resolution.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "config" })
		if !explicit {
			*config = "base"
		}
	}

	perf.Start("elag-sim")
	defer perf.Stop()
	ctx := perf.Context()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: elag-sim [flags]", cli.InputKinds)
		flag.PrintDefaults()
		os.Exit(2)
	}
	p, err := cli.Load(flag.Arg(0))
	if err != nil {
		cli.Fatal("elag-sim", err)
	}
	if *useProfile {
		lp, err := p.ProfileContext(ctx, *fuel)
		if err != nil && !errors.Is(err, elag.ErrFuel) {
			perf.CheckContext(err)
			cli.Fatal("elag-sim", fmt.Errorf("profile: %w", err))
		}
		p.ApplyProfile(lp, 0)
	}

	// The config list in serve's job vocabulary: base plus either the one
	// chosen machine or, under -all, every machine after base. The
	// simulation specs AND the cache key both derive from this list, so a
	// CLI run describes exactly the computation a serve job would.
	names := []string{*config}
	if *all {
		names = nil
		for _, m := range pipeline.Machines[1:] {
			names = append(names, m.Name)
		}
	}
	cfgSpecs := []serve.ConfigSpec{{Name: "base"}}
	for _, name := range names {
		cfgSpecs = append(cfgSpecs, serve.ConfigSpec{Name: name, Table: *table, Regs: *regs, Mech: *mechSpec})
	}

	store := cacheOpts.Open("elag-sim")
	var spec *serve.JobSpec
	if store != nil && !*useProfile {
		spec = cacheSpec(flag.Arg(0), cfgSpecs, *fuel, perf.Chunk)
	}

	metrics, output, hit := cachedResult(store, spec, len(cfgSpecs))
	if !hit {
		// One batched pass: the program is emulated exactly once and every
		// configuration (base included) advances through each trace chunk
		// on its replay lane. Rows print in fixed order and are
		// bit-identical to independent simulations.
		specs := make([]elag.BatchSpec, len(cfgSpecs))
		for i, c := range cfgSpecs {
			cfg, err := c.Config()
			if err != nil {
				cli.Fatal("elag-sim", err)
			}
			specs[i] = elag.BatchSpec{Config: cfg}
		}
		ms, res, err := p.SimulateBatchContext(ctx, specs, *fuel, perf.Chunk)
		if err != nil {
			perf.CheckContext(err)
			if *all {
				cli.Fatal("elag-sim", fmt.Errorf("simulate: %w", err))
			}
			cli.Fatal("elag-sim", fmt.Errorf("simulate %s: %w", *config, err))
		}
		metrics, output = ms, res.Output()
		if spec != nil {
			// Store the result in the exact document shape elag-serve
			// caches, so either side's cold run is the other's warm one.
			if data, err := json.Marshal(serve.NewSimulateResult(spec, output, metrics)); err == nil {
				store.Put(serve.ResultKey(spec), data)
			}
		}
	}

	if *all {
		fmt.Printf("program: %s\n", flag.Arg(0))
		if p.Classes != nil {
			fmt.Printf("classification: %s\n", p.Classes)
		}
		base := metrics[0]
		fmt.Printf("%-10s %12s %8s %10s %9s\n", "config", "cycles", "IPC", "load-lat", "speedup")
		fmt.Printf("%-10s %12d %8.2f %10.2f %9.3f\n", "base", base.Cycles, base.IPC(), base.AvgLoadLatency(), 1.0)
		for i, name := range names {
			m := metrics[i+1]
			fmt.Printf("%-10s %12d %8.2f %10.2f %9.3f\n",
				name, m.Cycles, m.IPC(), m.AvgLoadLatency(), m.SpeedupOver(base))
		}
		return
	}
	base, m := metrics[0], metrics[1]
	if *pipeview > 0 {
		cfg, err := cfgSpecs[1].Config()
		if err != nil {
			cli.Fatal("elag-sim", err)
		}
		view, err := p.StageView(cfg, *fuel, *pipeview)
		if err != nil {
			cli.Fatal("elag-sim", fmt.Errorf("stage view: %w", err))
		}
		fmt.Print(view)
	}

	fmt.Printf("program: %s\n", flag.Arg(0))
	if p.Classes != nil {
		fmt.Printf("classification: %s\n", p.Classes)
	}
	fmt.Printf("architectural: %s\n", output)
	fmt.Printf("%-10s %12s %8s %10s\n", "config", "cycles", "IPC", "load-lat")
	fmt.Printf("%-10s %12d %8.2f %10.2f\n", "base", base.Cycles, base.IPC(), base.AvgLoadLatency())
	fmt.Printf("%-10s %12d %8.2f %10.2f   speedup %.3f\n",
		cfgSpecs[1].Label(), m.Cycles, m.IPC(), m.AvgLoadLatency(), m.SpeedupOver(base))
	if *verbose {
		fmt.Println()
		fmt.Print(m.Summary())
	}
}

// cacheSpec maps the CLI invocation onto serve's job vocabulary, or nil
// when it has no spec equivalent: assembly and object inputs are outside
// the vocabulary, and the caller gates out -profile runs (reclassification
// changes the program in ways the spec cannot name).
func cacheSpec(arg string, configs []serve.ConfigSpec, fuel int64, chunk int) *serve.JobSpec {
	spec := &serve.JobSpec{Kind: serve.KindSimulate, Configs: configs, Fuel: fuel, Chunk: chunk}
	if name, ok := strings.CutPrefix(arg, "workload:"); ok {
		spec.Workload = name
		return spec
	}
	if strings.HasSuffix(arg, ".mc") {
		src, err := os.ReadFile(arg)
		if err != nil {
			return nil
		}
		spec.Source = string(src)
		return spec
	}
	return nil
}

// cachedResult answers from the artifact store when a prior run — this
// tool's or elag-serve's — stored the same computation. A document that
// fails to decode or has the wrong shape is treated as a miss, never an
// error: the run below recomputes and overwrites it.
func cachedResult(store *artifact.Store, spec *serve.JobSpec, nconfigs int) ([]*elag.Metrics, string, bool) {
	if spec == nil {
		return nil, "", false
	}
	data, ok := store.Get(serve.ResultKey(spec))
	if !ok {
		return nil, "", false
	}
	var res serve.SimulateResult
	if err := json.Unmarshal(data, &res); err != nil || len(res.Metrics) != nconfigs {
		return nil, "", false
	}
	ms := make([]*elag.Metrics, nconfigs)
	for i, d := range res.Metrics {
		if d == nil || d.Metrics == nil {
			return nil, "", false
		}
		ms[i] = d.Metrics
	}
	return ms, res.Output, true
}
