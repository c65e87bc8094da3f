// Package serve implements the elag-serve daemon: a long-running HTTP/JSON
// service that accepts compile, simulate, and grid jobs and runs them on
// the repository's batched-replay engine under hard robustness guarantees —
// per-job deadlines and cancellation (checked at trace-chunk boundaries),
// bounded queueing with backpressure, per-job panic isolation with worker
// replacement, and graceful drain. The wire format is schema-versioned as
// elag-serve/v1; DESIGN.md §13 documents the architecture and the
// degradation policy table.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"elag"
	"elag/internal/harness"
	"elag/internal/workload"
)

// Schema tags every elag-serve request and response document; bump on any
// field-shape change so clients can dispatch.
const Schema = "elag-serve/v1"

// Job kinds accepted by JobSpec.Kind.
const (
	// KindCompile builds MC source through the optimizing pipeline and
	// reports static program facts (no execution).
	KindCompile = "compile"
	// KindSimulate builds a program (from source or a built-in workload)
	// and replays it under one or more configurations in a single batched
	// pass, returning one elag-metrics/v1 document per configuration.
	KindSimulate = "simulate"
	// KindGrid regenerates the full paper evaluation (every table and
	// figure) over the built-in workload suite, returning the
	// elag-bench/v4 document.
	KindGrid = "grid"
)

// JobSpec is the elag-serve/v1 job submission body (POST /v1/jobs).
type JobSpec struct {
	// Schema, when present, must equal "elag-serve/v1".
	Schema string `json:"schema,omitempty"`
	// Kind selects the job type: compile | simulate | grid.
	Kind string `json:"kind"`

	// Source is MC source text (compile and simulate jobs).
	Source string `json:"source,omitempty"`
	// Workload names a built-in benchmark instead of Source (simulate
	// jobs), e.g. "023.eqntott".
	Workload string `json:"workload,omitempty"`
	// Opt is the optimization level for compile jobs: "0", "1" or "2"
	// (or "O0".."O2"; default O2, the standard pipeline).
	Opt string `json:"opt,omitempty"`

	// Configs are the batch cells of a simulate job, replayed from one
	// architectural execution in order.
	Configs []ConfigSpec `json:"configs,omitempty"`

	// Exp narrows a grid job to one experiment of harness.Experiments,
	// figmech included. Empty or "all" runs the full document, which
	// leaves figmech out. Narrow grids share the full document's per-row
	// artifact cache: an "all" run warms every narrower one and vice versa.
	Exp string `json:"exp,omitempty"`

	// Fuel bounds the dynamic instruction count. Simulate and grid jobs
	// must state a budget (admission rejects 0); it must not exceed the
	// server's -max-fuel.
	Fuel int64 `json:"fuel,omitempty"`
	// Chunk is the streaming-trace chunk size in entries (0 picks the
	// default). The service always streams — never materializes a full
	// trace — so a job's peak trace memory is O(Chunk).
	Chunk int `json:"chunk,omitempty"`
	// DeadlineMS bounds the job's wall time in milliseconds. 0 inherits
	// the server's -max-deadline; a value above it is rejected.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ConfigSpec names one simulator configuration (the same vocabulary as the
// CLI tools' -config/-table/-regs/-mech flags; see elag.NamedConfig).
type ConfigSpec struct {
	Name  string `json:"name"`
	Table int    `json:"table,omitempty"`
	Regs  int    `json:"regs,omitempty"`
	// Mech, when set, attaches an assist mechanism from the registry to
	// the named configuration, in the canonical "kind[:entries[xassoc]]"
	// form (e.g. "stride:256", "pcax:256x4"). Assists are mutually
	// exclusive with the paper structures, so Mech rides on Name "base";
	// the paper structures themselves are sized by Table and Regs, and a
	// paper-kind Mech is rejected (the named configuration either has
	// that structure already or never uses it).
	Mech string `json:"mech,omitempty"`
}

// Config resolves the spec to a simulator configuration: the named machine
// plus the optional mechanism. The resolved configuration is validated, so
// a bad geometry (a 3-entry table) or a Mech that conflicts with the named
// hardware (an assist on a machine that already has a prediction table) is
// an error here, at admission, not at job execution.
func (c ConfigSpec) Config() (elag.SimConfig, error) {
	cfg, err := elag.NamedConfig(c.Name, c.Table, c.Regs)
	if err != nil {
		return cfg, err
	}
	if c.Mech != "" {
		sp, err := elag.ParseMechSpec(c.Mech)
		if err != nil {
			return cfg, err
		}
		cfg.Mechanisms = append(cfg.Mechanisms, sp)
	}
	return cfg, cfg.Validate()
}

// Label is the spec's display name: the config name, qualified by the
// mechanism when one is attached.
func (c ConfigSpec) Label() string {
	if c.Mech == "" {
		return c.Name
	}
	if c.Name == "base" {
		return c.Mech
	}
	return c.Name + "+" + c.Mech
}

// SpecError reports a malformed or over-budget job spec. It is the typed
// error for everything rejected at admission: decode failures, unknown
// kinds, and budget violations.
type SpecError struct {
	// Field is the spec field at fault ("kind", "fuel", "body", ...).
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("invalid job spec: %s: %s", e.Field, e.Reason)
}

// Limits are the server's per-job admission budgets. Jobs exceeding any of
// them are rejected with a SpecError before touching the queue.
type Limits struct {
	// MaxFuel caps JobSpec.Fuel. Simulate and grid jobs must state a
	// budget of at most this many dynamic instructions.
	MaxFuel int64
	// MaxDeadline caps (and defaults) JobSpec.DeadlineMS.
	MaxDeadline time.Duration
	// MaxSourceBytes caps len(JobSpec.Source).
	MaxSourceBytes int
	// MaxConfigs caps len(JobSpec.Configs).
	MaxConfigs int
	// MaxChunk caps JobSpec.Chunk, bounding per-job trace memory.
	MaxChunk int
}

// DefaultLimits are the budgets elag-serve applies when a flag leaves one
// unset.
func DefaultLimits() Limits {
	return Limits{
		MaxFuel:        50_000_000,
		MaxDeadline:    2 * time.Minute,
		MaxSourceBytes: 1 << 20,
		MaxConfigs:     16,
		MaxChunk:       1 << 20,
	}
}

// maxSpecBytes bounds the request body read by DecodeSpec, independent of
// the per-field budgets (a 100MB body must not be buffered just to reject
// its Source field).
const maxSpecBytes = 4 << 20

// DecodeSpec reads one JobSpec from r, rejecting malformed bodies with a
// *SpecError (never a panic — FuzzJobSpec holds it to that). Unknown
// fields are rejected so client typos fail loudly. Budgets are not checked
// here; see Validate.
func DecodeSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, &SpecError{Field: "body", Reason: err.Error()}
	}
	// A second document in the body is a framing error, not trailing junk
	// to ignore.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &SpecError{Field: "body", Reason: "trailing data after job spec"}
	}
	return &spec, nil
}

// Validate checks spec against the admission budgets, returning a
// *SpecError naming the offending field. A valid spec is safe to admit:
// its kind is known, its inputs are well-formed, and its fuel, memory
// (chunk), and deadline budgets are within the server's limits.
func (spec *JobSpec) Validate(lim Limits) error {
	if spec.Schema != "" && spec.Schema != Schema {
		return &SpecError{Field: "schema", Reason: fmt.Sprintf("got %q, want %q", spec.Schema, Schema)}
	}
	if len(spec.Source) > lim.MaxSourceBytes {
		return &SpecError{Field: "source",
			Reason: fmt.Sprintf("%d bytes exceeds the %d-byte budget", len(spec.Source), lim.MaxSourceBytes)}
	}
	if spec.Fuel < 0 {
		return &SpecError{Field: "fuel", Reason: "must be non-negative"}
	}
	if spec.Fuel > lim.MaxFuel {
		return &SpecError{Field: "fuel",
			Reason: fmt.Sprintf("%d exceeds the %d-instruction budget", spec.Fuel, lim.MaxFuel)}
	}
	if spec.Chunk < 0 {
		return &SpecError{Field: "chunk", Reason: "must be non-negative"}
	}
	if spec.Chunk > lim.MaxChunk {
		return &SpecError{Field: "chunk",
			Reason: fmt.Sprintf("%d entries exceeds the %d-entry budget", spec.Chunk, lim.MaxChunk)}
	}
	if spec.DeadlineMS < 0 {
		return &SpecError{Field: "deadline_ms", Reason: "must be non-negative"}
	}
	if d := time.Duration(spec.DeadlineMS) * time.Millisecond; d > lim.MaxDeadline {
		return &SpecError{Field: "deadline_ms",
			Reason: fmt.Sprintf("%s exceeds the %s budget", d, lim.MaxDeadline)}
	}

	switch spec.Kind {
	case KindCompile:
		if spec.Source == "" {
			return &SpecError{Field: "source", Reason: "compile jobs need MC source"}
		}
		if spec.Workload != "" {
			return &SpecError{Field: "workload", Reason: "compile jobs take source, not a workload"}
		}
		if len(spec.Configs) != 0 {
			return &SpecError{Field: "configs", Reason: "compile jobs take no configurations"}
		}
		if spec.Opt != "" {
			if _, err := elag.ParseOptLevel(spec.Opt); err != nil {
				return &SpecError{Field: "opt", Reason: err.Error()}
			}
		}
	case KindSimulate:
		if (spec.Source == "") == (spec.Workload == "") {
			return &SpecError{Field: "source", Reason: "simulate jobs need exactly one of source or workload"}
		}
		if spec.Workload != "" && workload.Get(spec.Workload) == nil {
			var names []string
			for _, w := range workload.All() {
				names = append(names, w.Name)
			}
			return &SpecError{Field: "workload",
				Reason: fmt.Sprintf("unknown workload %q (have: %s)", spec.Workload, strings.Join(names, ", "))}
		}
		if len(spec.Configs) == 0 {
			return &SpecError{Field: "configs", Reason: "simulate jobs need at least one configuration"}
		}
		if len(spec.Configs) > lim.MaxConfigs {
			return &SpecError{Field: "configs",
				Reason: fmt.Sprintf("%d exceeds the %d-configuration budget", len(spec.Configs), lim.MaxConfigs)}
		}
		for i, c := range spec.Configs {
			if c.Table < 0 || c.Regs < 0 {
				return &SpecError{Field: fmt.Sprintf("configs[%d]", i), Reason: "table and regs must be non-negative"}
			}
			if _, err := c.Config(); err != nil {
				return &SpecError{Field: fmt.Sprintf("configs[%d]", i), Reason: err.Error()}
			}
		}
		if spec.Fuel == 0 {
			return &SpecError{Field: "fuel", Reason: "simulate jobs must state a fuel budget"}
		}
		if spec.Opt != "" {
			return &SpecError{Field: "opt", Reason: "only compile jobs take an optimization level"}
		}
	case KindGrid:
		if spec.Source != "" || spec.Workload != "" || len(spec.Configs) != 0 || spec.Opt != "" {
			return &SpecError{Field: "kind", Reason: "grid jobs run the built-in suite and take only exp/fuel/chunk/deadline"}
		}
		if _, err := harness.SelectExperiments(spec.Exp); err != nil {
			return &SpecError{Field: "exp", Reason: err.Error()}
		}
		if spec.Fuel == 0 {
			return &SpecError{Field: "fuel", Reason: "grid jobs must state a fuel budget"}
		}
	case "":
		return &SpecError{Field: "kind", Reason: "missing (want compile, simulate, or grid)"}
	default:
		return &SpecError{Field: "kind",
			Reason: fmt.Sprintf("unknown kind %q (want compile, simulate, or grid)", spec.Kind)}
	}
	if spec.Kind != KindGrid && spec.Exp != "" {
		return &SpecError{Field: "exp", Reason: "only grid jobs select an experiment"}
	}
	return nil
}

// Deadline returns the job's effective wall-time budget under lim: its own
// DeadlineMS, or the server maximum when unstated.
func (spec *JobSpec) Deadline(lim Limits) time.Duration {
	if spec.DeadlineMS > 0 {
		return time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	return lim.MaxDeadline
}

// JobError kinds (JobError.Kind).
const (
	// ErrKindInvalid — the spec failed admission (SpecError).
	ErrKindInvalid = "invalid"
	// ErrKindPanic — the job panicked in a worker; Stack has the trace.
	// The process survives and the pool replaces the worker.
	ErrKindPanic = "panic"
	// ErrKindDeadline — the job hit its wall-time budget.
	ErrKindDeadline = "deadline"
	// ErrKindCanceled — the job was cancelled (DELETE, client disconnect,
	// or drain policy).
	ErrKindCanceled = "canceled"
	// ErrKindFault — the simulated program faulted architecturally.
	ErrKindFault = "fault"
	// ErrKindInternal — anything else.
	ErrKindInternal = "internal"
)

// JobError is the typed, wire-visible failure of one job. Every failed job
// carries exactly one; the service process itself never dies for a job.
type JobError struct {
	// Kind classifies the failure (see the ErrKind constants).
	Kind string `json:"kind"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// Stack is the goroutine stack for Kind == "panic", empty otherwise.
	Stack string `json:"stack,omitempty"`
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job failed (%s): %s", e.Kind, e.Message)
}

// Job states (StatusDoc.State).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// StatusDoc is the elag-serve/v1 job status document returned by POST
// /v1/jobs and GET /v1/jobs/{id}. Result is populated only in state
// "done"; Error only in "failed" and "canceled".
type StatusDoc struct {
	Schema string    `json:"schema"`
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	State  string    `json:"state"`
	Error  *JobError `json:"error,omitempty"`
	Result any       `json:"result,omitempty"`
}

// ErrorDoc is the elag-serve/v1 body of every non-2xx response.
type ErrorDoc struct {
	Schema string    `json:"schema"`
	Error  *JobError `json:"error"`
}
