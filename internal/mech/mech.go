// Package mech is the load-acceleration mechanism vocabulary: the paper's
// two early-address structures, the PC-indexed address-prediction table
// (addrpred, the ld_p path) and the compiler-directed addressing-register
// cache R_addr (earlycalc, the ld_e path), plus two assist baselines that
// reuse the ld_p timing, a stride table (stride) and a PCAX-style table
// (pcax).
//
//   - Spec names a mechanism by kind plus geometry and has a stable
//     string form ("stride:64", "pcax:256x4") shared by the CLI flags, the
//     serve job API and the harness series definitions.
//   - kinds is the closed table of the four kinds: name, description,
//     geometry check and, for the assists, a constructor. Validate, New,
//     Kinds and Describe read it. A new mechanism is one file in this
//     package plus one row.
//   - Mechanism is what the pipeline drives for an assist: a PC-indexed
//     lookup at decode, a train at MEM, and the counters. The paper kinds
//     are never a Mechanism: pipeline.New builds them as their concrete
//     structures through PredictorConfig and RegCacheConfig.
//
// A mechanism must be deterministic (same Lookup/Train sequence, same
// answers and counters) and must keep the Stats algebra below. See
// DESIGN.md §17.
package mech

import (
	"fmt"
	"strconv"
	"strings"

	"elag/internal/addrpred"
	"elag/internal/earlycalc"
)

// Spec identifies a mechanism: a kind plus optional geometry. The zero
// Entries/Assoc pick the kind's defaults.
type Spec struct {
	// Kind is the kind name ("addrpred", "earlycalc", "stride", ...).
	Kind string `json:"kind"`
	// Entries is the total entry count (0 = the kind's default).
	Entries int `json:"entries,omitempty"`
	// Assoc is the set associativity (0 = the kind's default).
	Assoc int `json:"assoc,omitempty"`
}

// String renders the spec in the canonical flag form
// "kind[:entries[xassoc]]"; zero geometry fields are omitted.
func (s Spec) String() string {
	out := s.Kind
	if s.Entries != 0 || s.Assoc != 0 {
		out += ":" + strconv.Itoa(s.Entries)
		if s.Assoc != 0 {
			out += "x" + strconv.Itoa(s.Assoc)
		}
	}
	return out
}

// ParseSpec parses the canonical "kind[:entries[xassoc]]" form. It checks
// syntax only; Validate checks the kind and geometry against the kind
// table.
func ParseSpec(str string) (Spec, error) {
	kind, geom, hasGeom := strings.Cut(str, ":")
	if kind == "" {
		return Spec{}, fmt.Errorf("mechanism spec %q: empty kind", str)
	}
	sp := Spec{Kind: kind}
	if !hasGeom {
		return sp, nil
	}
	ent, assoc, hasAssoc := strings.Cut(geom, "x")
	n, err := strconv.Atoi(ent)
	if err != nil || n <= 0 {
		return Spec{}, fmt.Errorf("mechanism spec %q: bad entry count %q", str, ent)
	}
	sp.Entries = n
	if hasAssoc {
		a, err := strconv.Atoi(assoc)
		if err != nil || a <= 0 {
			return Spec{}, fmt.Errorf("mechanism spec %q: bad associativity %q", str, assoc)
		}
		sp.Assoc = a
	}
	return sp, nil
}

// Stats counts a mechanism's behaviour. The algebra Lookups == Hits +
// Misses holds for every implementation (asserted by the differential
// checker and the service's chaos suite).
type Stats struct {
	// Lookups counts assist-path probes.
	Lookups int64 `json:"lookups"`
	// Hits counts probes that produced a predicted address.
	Hits int64 `json:"hits"`
	// Misses counts probes that produced nothing.
	Misses int64 `json:"misses"`
	// Trains counts retirement-side updates.
	Trains int64 `json:"trains"`
	// Allocs counts entry allocations (a subset of Trains).
	Allocs int64 `json:"allocs"`
}

// Mechanism is the contract an assist mechanism implements. The pipeline
// drives Lookup at decode/speculation time and Train at the MEM stage of
// every retiring load, and emits the event stream around both calls.
type Mechanism interface {
	// Lookup probes the mechanism for load PC pc and returns a predicted
	// effective address; a miss returns (0, false).
	Lookup(pc int64) (addr int64, ok bool)
	// Train observes a retiring load: PC pc accessed effective address
	// ea. It reports whether the update allocated a new entry.
	Train(pc, ea int64) (alloc bool)
	// Stats returns the cumulative counters.
	Stats() Stats
}

// KindDesc is one kind-table row for help output.
type KindDesc struct {
	Kind string
	Desc string
}

// kind is one row of the kind table: check validates a spec's geometry
// and build constructs an assist. build is nil for the paper kinds, which
// only pipeline.New builds.
type kind struct {
	name, desc string
	check      func(Spec) error
	build      func(Spec) Mechanism
}

// kinds is every mechanism kind, sorted by name.
var kinds = [...]kind{
	{"addrpred", "PC-indexed stride address-prediction table (paper Fig. 3; ld_p)", checkAddrpred, nil},
	{"earlycalc", "compiler-directed addressing-register cache R_addr (ld_e)", checkEarlycalc, nil},
	{"pcax", "set-associative PC-indexed address assist, two-delta agreement (PCAX-style)", checkPCAX, newPCAX},
	{"stride", "direct-mapped stride prefetch table, 2-bit confidence (baseline competitor)", checkStride, newStride},
}

// check resolves a spec's kind and checks its geometry: first the rule
// every kind shares, that the spec has a canonical string form (no
// negative field, and an associativity only with an entry count, since
// "kind:0x4" does not parse back), then the kind's own check. New and
// Validate share it, so a spec that validates is one New accepts.
func check(s Spec) (*kind, error) {
	var k *kind
	for i := range kinds {
		if kinds[i].name == s.Kind {
			k = &kinds[i]
			break
		}
	}
	if k == nil {
		return nil, fmt.Errorf("unknown mechanism kind %q (known: %s)", s.Kind, strings.Join(Kinds(), ", "))
	}
	if s.Entries < 0 || s.Assoc < 0 || (s.Assoc != 0 && s.Entries == 0) {
		return nil, fmt.Errorf("%s: entries %d, assoc %d: geometry must be non-negative, and an associativity needs an entry count",
			s.Kind, s.Entries, s.Assoc)
	}
	if err := k.check(s); err != nil {
		return nil, err
	}
	return k, nil
}

// New builds an assist mechanism from a spec. It rejects the paper kinds,
// which pipeline.New builds as their concrete structures.
func New(s Spec) (Mechanism, error) {
	k, err := check(s)
	if err != nil {
		return nil, err
	}
	if k.build == nil {
		return nil, fmt.Errorf("%s is a paper mechanism: the pipeline builds it from PredictorConfig or RegCacheConfig", s.Kind)
	}
	return k.build(s), nil
}

// Validate checks a spec's kind and geometry without building anything.
func Validate(s Spec) error {
	_, err := check(s)
	return err
}

// Kinds returns the kind names, sorted.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i := range kinds {
		out[i] = kinds[i].name
	}
	return out
}

// Describe returns one row per kind, sorted by kind.
func Describe() []KindDesc {
	out := make([]KindDesc, len(kinds))
	for i := range kinds {
		out[i] = KindDesc{Kind: kinds[i].name, Desc: kinds[i].desc}
	}
	return out
}

// PredictorConfig maps a spec of kind "addrpred" to the concrete table
// configuration the pipeline's ld_p path consumes.
func PredictorConfig(s Spec) addrpred.Config {
	return addrpred.Config{Entries: s.Entries, Assoc: s.Assoc}
}

// RegCacheConfig maps a spec of kind "earlycalc" to the concrete register
// cache configuration the pipeline's ld_e path consumes.
func RegCacheConfig(s Spec) earlycalc.Config {
	return earlycalc.Config{Entries: s.Entries}
}

func checkAddrpred(s Spec) error {
	return PredictorConfig(s).Validate()
}

func checkEarlycalc(s Spec) error {
	if s.Assoc != 0 && s.Assoc != s.Entries {
		return fmt.Errorf("earlycalc: the register cache is fully associative (assoc %d with %d entries)", s.Assoc, s.Entries)
	}
	return RegCacheConfig(s).Validate()
}

// powerOfTwo reports whether n is a positive power of two, the geometry
// rule both assists share.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }
