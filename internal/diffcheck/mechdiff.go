// mechdiff.go extends the differential checker across the pluggable
// mechanism layer (internal/mech). It verifies the two halves of the
// refactor's contract separately:
//
//   - Identity: the paper's two mechanisms expressed as registry specs
//     ("addrpred:256", "earlycalc:4") must produce metrics bit-identical
//     to the same geometry configured through the original typed fields.
//     The seam may not perturb the model it was extracted from.
//   - Soundness: every registered assist mechanism (stride, pcax, ...)
//     must satisfy the full invariant suite — lockstep trace integrity,
//     architectural transparency, counter algebra, steering and streaming
//     equivalence.
package diffcheck

import (
	"context"
	"reflect"

	"elag/internal/addrpred"
	"elag/internal/earlycalc"
	"elag/internal/isa"
	"elag/internal/mech"
	_ "elag/internal/mech/all" // register the assist mechanisms
	"elag/internal/pipeline"
)

// MechConfigs returns the mechanism-layer differential configurations: the
// base (no-speculation) anchor, the paper mechanisms expressed through
// registry specs, and each assist mechanism at its reference geometry. The
// first entry is always base, anchoring the cross-config cycle bound.
func MechConfigs() []NamedConfig {
	return []NamedConfig{
		{"base", pipeline.PaperBase()},
		{"spec-predict", pipeline.Config{
			Select:     pipeline.SelAllPredict,
			Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: 256}},
		}},
		{"spec-early", pipeline.Config{
			Select:     pipeline.SelAllEarly,
			Mechanisms: []mech.Spec{{Kind: "earlycalc", Entries: 4}},
		}},
		{"spec-compiler", pipeline.Config{
			Select: pipeline.SelCompiler,
			Mechanisms: []mech.Spec{
				{Kind: "addrpred", Entries: 256},
				{Kind: "earlycalc", Entries: 1},
			},
		}},
		{"stride", pipeline.Config{
			Mechanisms: []mech.Spec{{Kind: "stride", Entries: 256}},
		}},
		{"pcax", pipeline.Config{
			Mechanisms: []mech.Spec{{Kind: "pcax", Entries: 256, Assoc: 4}},
		}},
	}
}

// specIdentityPairs lists typed-vs-spec configuration pairs that must be
// metric-identical: each row is the same hardware, written once in the
// pre-refactor typed vocabulary and once as registry specs.
func specIdentityPairs() []struct {
	name         string
	typed, specd pipeline.Config
} {
	typedPred := pipeline.Config{
		Select:    pipeline.SelAllPredict,
		Predictor: &addrpred.Config{Entries: 256},
	}
	typedEarly := pipeline.Config{
		Select:   pipeline.SelAllEarly,
		RegCache: &earlycalc.Config{Entries: 4},
	}
	typedComp := pipeline.Config{
		Select:    pipeline.SelCompiler,
		Predictor: &addrpred.Config{Entries: 256},
		RegCache:  &earlycalc.Config{Entries: 1},
	}
	return []struct {
		name         string
		typed, specd pipeline.Config
	}{
		{"addrpred", typedPred, pipeline.Config{
			Select:     pipeline.SelAllPredict,
			Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: 256}},
		}},
		{"earlycalc", typedEarly, pipeline.Config{
			Select:     pipeline.SelAllEarly,
			Mechanisms: []mech.Spec{{Kind: "earlycalc", Entries: 4}},
		}},
		{"compiler", typedComp, pipeline.Config{
			Select: pipeline.SelCompiler,
			Mechanisms: []mech.Spec{
				{Kind: "addrpred", Entries: 256},
				{Kind: "earlycalc", Entries: 1},
			},
		}},
	}
}

// CheckMechEquivalence runs the mechanism-layer differential suite on prog:
// the full invariant check over MechConfigs (or opt.Configs when set),
// plus the typed-vs-spec identity
// comparison for the paper mechanisms. It returns an error only when the
// reference emulation itself faults; violations land in the Report.
func CheckMechEquivalence(prog *isa.Program, opt Options) (*Report, error) {
	if opt.Fuel <= 0 {
		opt.Fuel = 1_000_000
	}
	if opt.Configs == nil {
		opt.Configs = MechConfigs()
	}
	rep, err := Check(prog, opt)
	if err != nil {
		return nil, err
	}
	checkSpecIdentity(prog, opt.Fuel, rep)
	return rep, nil
}

// checkSpecIdentity simulates each typed/spec pair as one batch of two and
// requires the full Metrics structs to be deeply equal: the normalized
// configurations are the same machine.
func checkSpecIdentity(prog *isa.Program, fuel int64, rep *Report) {
	for _, pair := range specIdentityPairs() {
		ms, _, err := pipeline.Replay(context.Background(), prog,
			[]pipeline.BatchSpec{{Config: pair.typed}, {Config: pair.specd}},
			pipeline.Options{Fuel: fuel})
		if err != nil {
			rep.failf(pair.name, "spec-identity", "replay: %v", err)
			continue
		}
		if mt, ms := ms[0], ms[1]; !reflect.DeepEqual(mt, ms) {
			rep.failf(pair.name, "spec-identity",
				"registry-spec metrics differ from typed configuration: %d cycles vs %d",
				ms.Cycles, mt.Cycles)
		}
	}
}
