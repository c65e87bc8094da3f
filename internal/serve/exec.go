package serve

import (
	"fmt"
	"strings"

	"elag"
	"elag/internal/harness"
	"elag/internal/pipeline"
	"elag/internal/telemetry"
	"elag/internal/workload"
)

// CompileResult is the result payload of a compile job: static facts about
// the built program (no execution happens).
type CompileResult struct {
	// MachineInsts is the assembled instruction count.
	MachineInsts int `json:"machine_insts"`
	// AsmLines is the length of the generated assembly listing.
	AsmLines int `json:"asm_lines"`
	// Pipeline is the pass pipeline that built the program.
	Pipeline string `json:"pipeline"`
	// StaticNT/PD/EC are the per-class static load counts from the
	// compiler's classification.
	StaticNT int `json:"static_nt"`
	StaticPD int `json:"static_pd"`
	StaticEC int `json:"static_ec"`
}

// SimulateResult is the result payload of a simulate job: the program's
// architectural output plus one elag-metrics/v1 document per requested
// configuration, in spec order. The documents are byte-identical to what
// elag-sim produces for the same program, configuration, and fuel — the
// job ran the exact same batched-replay entry point, and the progress
// instrumentation only observes chunks every sim has finished.
type SimulateResult struct {
	// Output is the architectural result (exit code and output streams),
	// identical across configurations by construction.
	Output string `json:"output"`
	// Metrics has one document per spec.Configs entry, in order.
	Metrics []*elag.MetricsDoc `json:"metrics"`
}

// execute runs one admitted job to completion under its context. It is
// called on a pool worker; panics are the caller's problem (the pool
// isolates them). The spec has passed Validate, so input errors here are
// program-level (build failures, architectural faults), not spec-level.
// work receives chunk/lab-cache telemetry; j.progress receives live
// frames (free when nobody subscribed).
func execute(j *Job, gridParallel int, work *harness.Counters) (any, error) {
	switch j.Spec.Kind {
	case KindCompile:
		return executeCompile(j.Spec)
	case KindSimulate:
		return executeSimulate(j, work)
	case KindGrid:
		return executeGrid(j, gridParallel, work)
	}
	// Unreachable after Validate; keep the failure typed anyway.
	return nil, &SpecError{Field: "kind", Reason: fmt.Sprintf("unknown kind %q", j.Spec.Kind)}
}

func executeCompile(spec *JobSpec) (any, error) {
	opts := elag.BuildOptions{}
	if spec.Opt != "" {
		lvl, err := elag.ParseOptLevel(spec.Opt)
		if err != nil {
			return nil, err
		}
		opts.Level = lvl
	}
	p, err := elag.Build(spec.Source, opts)
	if err != nil {
		return nil, err
	}
	res := &CompileResult{
		MachineInsts: len(p.Machine.Insts),
		AsmLines:     strings.Count(p.Asm, "\n"),
		Pipeline:     p.Pipeline,
	}
	if p.Classes != nil {
		res.StaticNT = p.Classes.StaticNT
		res.StaticPD = p.Classes.StaticPD
		res.StaticEC = p.Classes.StaticEC
	}
	return res, nil
}

func executeSimulate(j *Job, work *harness.Counters) (any, error) {
	spec := j.Spec
	var p *elag.Program
	var err error
	if spec.Workload != "" {
		p, err = elag.Build(workload.Get(spec.Workload).Source, elag.BuildOptions{})
	} else {
		p, err = elag.Build(spec.Source, elag.BuildOptions{})
	}
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	specs := make([]elag.BatchSpec, len(spec.Configs))
	for i, c := range spec.Configs {
		cfg, err := c.Config()
		if err != nil {
			return nil, err
		}
		specs[i] = elag.BatchSpec{Config: cfg}
	}
	// The progress hook runs on Replay's goroutine once every sim has
	// replayed a chunk, after work has counted it, possibly while the
	// lanes replay later chunks: it publishes a frame (one atomic load
	// when nobody subscribed) and never touches simulator state, so
	// results stay byte-identical with telemetry on or off. Chunk 0
	// streams at the default size: the service never materializes a full
	// trace, so peak memory stays O(chunk) whatever the fuel. A
	// fuel-truncated run is not an error (prefix timing is valid timing).
	metrics, runRes, err := work.Replay(j.ctx, p.Machine, specs, pipeline.Options{
		Fuel: spec.Fuel, Chunk: spec.Chunk,
		OnChunk: func(done int64, n int) {
			j.progress.Publish(telemetry.Frame{Type: "chunk", Job: j.ID, Insts: done, Fuel: spec.Fuel})
		},
	})
	if err != nil {
		return nil, err
	}
	return NewSimulateResult(spec, runRes.Output(), metrics), nil
}

// NewSimulateResult assembles the simulate-job result document: the
// architectural output plus one metrics document per config, labelled
// the way the service labels them. elag-sim's cache path builds its
// artifacts through this same constructor, so a CLI-computed result is
// byte-identical to a server-computed one and the two can share a store.
func NewSimulateResult(spec *JobSpec, output string, metrics []*elag.Metrics) *SimulateResult {
	label := "source"
	if spec.Workload != "" {
		label = spec.Workload
	}
	res := &SimulateResult{Output: output}
	for i, m := range metrics {
		res.Metrics = append(res.Metrics, elag.NewMetricsDoc(label, spec.Configs[i].Label(), m))
	}
	return res
}

func executeGrid(j *Job, parallel int, work *harness.Counters) (any, error) {
	r := &harness.Runner{
		Fuel: j.Spec.Fuel, Parallel: parallel, ChunkSize: j.Spec.Chunk,
		Counters: work,
		// Each completed benchmark column becomes a frame; done/total
		// restart per experiment (Document runs several), so a consumer
		// sees per-experiment sweep progress, not one global bar.
		Progress: func(bench string, done, total int) {
			j.progress.Publish(telemetry.Frame{Type: "bench", Job: j.ID,
				Bench: bench, Done: done, Total: total})
		},
	}
	return r.DocumentExp(j.ctx, j.Spec.Exp)
}
