// adapt.go makes the paper's two mechanisms — the addrpred prediction
// table and the earlycalc addressing-register cache — the registry's first
// two implementations. A spec is the only way to configure either, but the
// pipeline drives both through their concrete types on the replay hot path:
// pipeline.New builds the table and the register cache straight from the
// specs through PredictorConfig and RegCacheConfig (the interface
// indirection is reserved for assist mechanisms). These adapters give the
// two paper mechanisms full registry citizenship: validation, Describe
// rows, and an interface-complete wrapping for tests and tooling.
package mech

import (
	"fmt"

	"elag/internal/addrpred"
	"elag/internal/earlycalc"
)

func init() {
	Register("addrpred",
		"PC-indexed stride address-prediction table (paper Fig. 3; ld_p)",
		newAddrpred, validateAddrpred)
	Register("earlycalc",
		"compiler-directed addressing-register cache R_addr (ld_e)",
		newEarlycalc, validateEarlycalc)
}

// PredictorConfig maps a spec of kind "addrpred" to the concrete table
// configuration the pipeline's dedicated ld_p path consumes.
func PredictorConfig(s Spec) addrpred.Config {
	return addrpred.Config{Entries: s.Entries, Assoc: s.Assoc}
}

// RegCacheConfig maps a spec of kind "earlycalc" to the concrete register
// cache configuration the pipeline's dedicated ld_e path consumes.
func RegCacheConfig(s Spec) earlycalc.Config {
	return earlycalc.Config{Entries: s.Entries}
}

func validateAddrpred(s Spec) error {
	return PredictorConfig(s).Validate()
}

func validateEarlycalc(s Spec) error {
	if s.Assoc != 0 && s.Assoc != s.Entries {
		return fmt.Errorf("earlycalc: the register cache is fully associative (assoc %d with %d entries)", s.Assoc, s.Entries)
	}
	return RegCacheConfig(s).Validate()
}

// predAdapter wraps addrpred.Table as a Mechanism.
type predAdapter struct {
	t  *addrpred.Table
	st Stats
	ob func(Event)
}

func newAddrpred(s Spec) (Mechanism, error) {
	t, err := addrpred.NewTable(PredictorConfig(s))
	if err != nil {
		return nil, err
	}
	return &predAdapter{t: t}, nil
}

func (a *predAdapter) Kind() string { return "addrpred" }

func (a *predAdapter) Lookup(pc int64) (int64, bool) {
	a.st.Lookups++
	addr, ok := a.t.Probe(int(pc))
	if ok {
		a.st.Hits++
	} else {
		a.st.Misses++
	}
	if a.ob != nil {
		a.ob(Event{Op: EvLookup, PC: pc, Addr: addr, Hit: ok})
	}
	return addr, ok
}

func (a *predAdapter) Train(pc, ea int64) {
	a.st.Trains++
	pre := a.t.Stats().Allocations
	a.t.Update(int(pc), ea)
	alloc := a.t.Stats().Allocations - pre
	a.st.Allocs += alloc
	if a.ob != nil {
		op := EvTrain
		if alloc > 0 {
			op = EvAlloc
		}
		a.ob(Event{Op: op, PC: pc, Addr: ea})
	}
}

func (a *predAdapter) Stats() Stats { return a.st }

func (a *predAdapter) SetObserver(f func(Event)) { a.ob = f }
func (a *predAdapter) HasObserver() bool         { return a.ob != nil }

// rcAdapter wraps earlycalc.Cache as a Mechanism. The register cache does
// not predict through a PC-indexed probe — its pipeline path is the
// dedicated R_addr machinery — so Lookup always misses and Train is a
// no-op; the adapter's value is the stats/observer surface and registry
// presence.
type rcAdapter struct {
	c  *earlycalc.Cache
	ob func(Event)
}

func newEarlycalc(s Spec) (Mechanism, error) {
	if err := validateEarlycalc(s); err != nil {
		return nil, err
	}
	return &rcAdapter{c: earlycalc.New(RegCacheConfig(s))}, nil
}

func (a *rcAdapter) Kind() string { return "earlycalc" }

func (a *rcAdapter) Lookup(pc int64) (int64, bool) { return 0, false }
func (a *rcAdapter) Train(pc, ea int64)            {}

func (a *rcAdapter) Stats() Stats {
	s := a.c.Stats()
	return Stats{Lookups: s.Lookups, Hits: s.Hits, Misses: s.Lookups - s.Hits, Trains: s.Binds}
}

func (a *rcAdapter) SetObserver(f func(Event)) {
	a.ob = f
	if f == nil {
		a.c.Observer = nil
		return
	}
	a.c.Observer = func(ev earlycalc.Event) {
		f(Event{Op: EvTrain, PC: int64(ev.Reg), Addr: ev.Value, Hit: ev.Valid})
	}
}

func (a *rcAdapter) HasObserver() bool { return a.ob != nil }
