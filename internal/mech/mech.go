// Package mech is the pluggable load-acceleration mechanism layer.
//
// The paper evaluates exactly three early-address flavours — no table, the
// PC-indexed address-prediction table (addrpred) and the compiler-directed
// addressing-register cache (earlycalc) — and the original simulator named
// those two packages concretely in its configuration and exporters. This
// package turns the seam into a registry so a fourth mechanism is one
// self-contained unit under internal/mech/... plus a spec string, not
// surgery on every layer:
//
//   - Spec names a mechanism by registry kind plus geometry and has a
//     stable string form ("stride:64", "pcax:256x4") shared by the CLI
//     flags, the serve job API and the harness series definitions.
//   - Mechanism is the contract the pipeline drives: a PC-indexed
//     lookup/train pair for the assist path, a stats surface, and observer
//     hooks for the event stream. That is all a new mechanism implements.
//   - The registry (Register/New/Validate/Kinds/Describe) is populated at
//     init time: the two paper mechanisms register in this package (see
//     adapt.go), new mechanisms self-register from their own package and
//     are linked in via the blank-import package internal/mech/all.
//
// A mechanism must be deterministic (same Lookup/Train sequence, same
// answers and counters) and must keep the Stats algebra below. See
// DESIGN.md §17.
package mech

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Spec identifies a mechanism: a registry kind plus optional geometry.
// The zero Entries/Assoc pick the kind's defaults.
type Spec struct {
	// Kind is the registry name ("addrpred", "earlycalc", "stride", ...).
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
// syntax only; Validate checks the kind and geometry against the registry.
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

// EventOp discriminates observer events.
type EventOp uint8

const (
	// EvLookup — an assist-path probe (Hit says whether it predicted).
	EvLookup EventOp = iota
	// EvTrain — a retirement-side update of an existing entry.
	EvTrain
	// EvAlloc — a retirement-side update that allocated a new entry.
	EvAlloc
)

// Event is one observable mechanism occurrence.
type Event struct {
	Op   EventOp
	PC   int64
	Addr int64
	Hit  bool
}

// Mechanism is the contract a load-acceleration mechanism implements. The
// pipeline drives Lookup at decode/speculation time and Train at the MEM
// stage of every retiring load; the event stream attaches through the
// observer hooks.
type Mechanism interface {
	// Kind returns the registry kind this instance was built from.
	Kind() string

	// Lookup probes the mechanism for load PC pc and returns a predicted
	// effective address. Mechanisms that do not predict through a
	// PC-indexed probe (earlycalc's R_addr path) always miss here.
	Lookup(pc int64) (addr int64, ok bool)
	// Train observes a retiring load: PC pc accessed effective address ea.
	Train(pc, ea int64)

	// Stats returns the cumulative counters.
	Stats() Stats

	// SetObserver attaches (or with nil detaches) an event observer;
	// HasObserver reports whether one is attached.
	SetObserver(func(Event))
	HasObserver() bool
}

// KindDesc is one registry row for help output.
type KindDesc struct {
	Kind string
	Desc string
}

type kindInfo struct {
	desc     string
	factory  func(Spec) (Mechanism, error)
	validate func(Spec) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]kindInfo{}
)

// Register adds a mechanism kind to the registry. factory builds an
// instance from a spec; validate checks a spec's geometry without building
// (nil means any geometry is accepted). Kinds register at init time;
// duplicate registration panics.
func Register(kind, desc string, factory func(Spec) (Mechanism, error), validate func(Spec) error) {
	regMu.Lock()
	defer regMu.Unlock()
	if kind == "" || factory == nil {
		panic("mech: Register with empty kind or nil factory")
	}
	if _, dup := registry[kind]; dup {
		panic("mech: duplicate Register of kind " + kind)
	}
	registry[kind] = kindInfo{desc: desc, factory: factory, validate: validate}
}

func lookupKind(kind string) (kindInfo, error) {
	regMu.RLock()
	info, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return kindInfo{}, fmt.Errorf("unknown mechanism kind %q (known: %s)", kind, strings.Join(Kinds(), ", "))
	}
	return info, nil
}

// check resolves a spec's kind and checks its geometry: first the
// registry-wide rule that the spec has a canonical string form (no
// negative field, and an associativity only with an entry count, since
// "kind:0x4" does not parse back), then the kind's own validator. New and
// Validate share it, so a spec that validates is one New accepts.
func check(s Spec) (kindInfo, error) {
	info, err := lookupKind(s.Kind)
	if err != nil {
		return kindInfo{}, err
	}
	if s.Entries < 0 || s.Assoc < 0 || (s.Assoc != 0 && s.Entries == 0) {
		return kindInfo{}, fmt.Errorf("%s: entries %d, assoc %d: geometry must be non-negative, and an associativity needs an entry count",
			s.Kind, s.Entries, s.Assoc)
	}
	if info.validate != nil {
		if err := info.validate(s); err != nil {
			return kindInfo{}, err
		}
	}
	return info, nil
}

// New builds a mechanism instance from a spec.
func New(s Spec) (Mechanism, error) {
	info, err := check(s)
	if err != nil {
		return nil, err
	}
	return info.factory(s)
}

// Validate checks a spec against the registry without building an instance.
func Validate(s Spec) error {
	_, err := check(s)
	return err
}

// Kinds returns the registered kind names, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns one row per registered kind, sorted by kind.
func Describe() []KindDesc {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]KindDesc, 0, len(registry))
	for k, info := range registry {
		out = append(out, KindDesc{Kind: k, Desc: info.desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// PowerOfTwo reports whether n is a positive power of two — the geometry
// convention every built-in mechanism shares.
func PowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }
