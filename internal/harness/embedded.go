package harness

import (
	"context"
	"fmt"
	"strings"

	"elag/internal/bpred"
	"elag/internal/cache"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// Section 5.4 of the paper argues compiler-directed early address
// generation suits embedded processors best: in-order cores, tight
// area/power budgets (so a 256-entry table + one register beats a
// 16-register multicast cache), and malleable instruction sets. The paper
// evaluates MediaBench on the same 6-wide core; this experiment goes one
// step further and re-runs the comparison on an embedded-class core —
// 2-wide, single memory port, 8K caches, a small 64-entry table — where
// the area argument has teeth.

// embedded returns the embedded-class core — 2-wide in-order, one memory
// port, 8K direct-mapped caches, a 256-entry BTB — with hw's selection and
// early-address hardware.
func embedded(hw pipeline.Config) pipeline.Config {
	return pipeline.Config{
		FetchWidth:  2,
		IssueWidth:  2,
		IntALUs:     2,
		MemPorts:    1,
		FPALUs:      1,
		BranchUnits: 1,
		ICache:      cache.Config{SizeBytes: 8 << 10},
		DCache:      cache.Config{SizeBytes: 8 << 10},
		BTB:         bpred.Config{Entries: 256},
		Select:      hw.Select,
		Mechanisms:  hw.Mechanisms,
	}
}

// EmbeddedRow is one benchmark's result in the embedded experiment.
type EmbeddedRow struct {
	Name            string  `json:"name"`
	CompilerSpeedup float64 `json:"compiler_speedup"` // embedded compiler-directed vs embedded base
	HWDualSpeedup   float64 `json:"hw_dual_speedup"`  // embedded hardware-only dual vs embedded base
}

// Embedded runs the Section 5.4 experiment over the MediaBench suite.
func (r *Runner) Embedded(ctx context.Context) ([]EmbeddedRow, error) {
	media := workload.BySuite(workload.Media)
	rows := make([]EmbeddedRow, len(media))
	err := r.forEachLab(ctx, media, func(ctx context.Context, i int, l *Lab) error {
		ms, err := l.SimulateBatch(ctx, []pipeline.BatchSpec{
			{Config: embedded(pipeline.Config{})},
			// The compiler-directed hardware scaled to an embedded
			// budget: a 64-entry table and one R_addr.
			{Config: embedded(pipeline.SelCompiler.Config(64, 1)), Flavors: l.HeurFlavors},
			// The hardware-only dual path at the area budget the
			// paper argues embedded designs cannot afford to
			// exceed: the same table but an 8-register multicast
			// cache.
			{Config: embedded(pipeline.SelHWDual.Config(64, 8))},
		})
		if err != nil {
			return err
		}
		base, cc, hw := ms[0], ms[1], ms[2]
		rows[i] = EmbeddedRow{
			Name:            l.W.Name,
			CompilerSpeedup: float64(base.Cycles) / float64(cc.Cycles),
			HWDualSpeedup:   float64(base.Cycles) / float64(hw.Cycles),
		}
		r.logf("%s done", l.W.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var avg EmbeddedRow
	for _, row := range rows {
		avg.CompilerSpeedup += row.CompilerSpeedup / float64(len(media))
		avg.HWDualSpeedup += row.HWDualSpeedup / float64(len(media))
	}
	avg.Name = "average"
	rows = append(rows, avg)
	return rows, nil
}

// FormatEmbedded renders the embedded experiment.
func FormatEmbedded(rows []EmbeddedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Embedded core (2-wide, 1 port, 8K caches) — Section 5.4 extension\n")
	fmt.Fprintf(&b, "%-14s %16s %16s\n", "Benchmark", "compiler (64+1)", "hw-dual (64+8)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %16.2f %16.2f\n", r.Name, r.CompilerSpeedup, r.HWDualSpeedup)
	}
	return b.String()
}
