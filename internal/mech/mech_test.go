package mech_test

import (
	"testing"

	"elag/internal/diffcheck"
	"elag/internal/mech"
	_ "elag/internal/mech/all"
	"elag/internal/pipeline"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want mech.Spec
	}{
		{"stride", mech.Spec{Kind: "stride"}},
		{"stride:64", mech.Spec{Kind: "stride", Entries: 64}},
		{"pcax:256x4", mech.Spec{Kind: "pcax", Entries: 256, Assoc: 4}},
		{"addrpred:1024", mech.Spec{Kind: "addrpred", Entries: 1024}},
	}
	for _, c := range cases {
		got, err := mech.ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Errorf("Spec(%+v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	for _, bad := range []string{"", ":64", "stride:", "stride:0", "stride:64x", "stride:64x0", "stride:abc"} {
		if _, err := mech.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}

	// The string is the spelling of a spec in labels, flags and job
	// specs, so every spec the repository configures must validate and
	// parse back from its String form.
	specs := append([]mech.Spec(nil), pipeline.AssistSpecs...)
	for _, nc := range append(diffcheck.DefaultConfigs(), diffcheck.MechConfigs()...) {
		specs = append(specs, nc.Config.Mechanisms...)
	}
	for _, sp := range specs {
		if err := mech.Validate(sp); err != nil {
			t.Errorf("Validate(%+v): %v", sp, err)
			continue
		}
		if got, err := mech.ParseSpec(sp.String()); err != nil || got != sp {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", sp.String(), got, err, sp)
		}
	}
	// An associativity without an entry count renders as "kind:0x4",
	// which does not parse back, so no kind may accept it.
	for _, kind := range []string{"pcax", "addrpred"} {
		sp := mech.Spec{Kind: kind, Assoc: 4}
		if err := mech.Validate(sp); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", sp)
		}
		if _, err := mech.New(sp); err == nil {
			t.Errorf("New(%+v) = nil error, want error", sp)
		}
	}
}

func TestRegistry(t *testing.T) {
	kinds := mech.Kinds()
	want := map[string]bool{"addrpred": true, "earlycalc": true, "stride": true, "pcax": true}
	for _, k := range kinds {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("Kinds() = %v, missing %v", kinds, want)
	}
	if len(mech.Describe()) != len(kinds) {
		t.Errorf("Describe() rows (%d) != Kinds() (%d)", len(mech.Describe()), len(kinds))
	}
	if _, err := mech.New(mech.Spec{Kind: "no-such"}); err == nil {
		t.Error("New(unknown kind): want error")
	}
	if err := mech.Validate(mech.Spec{Kind: "stride", Entries: 48}); err == nil {
		t.Error("Validate(stride:48): want power-of-two error")
	}
	if err := mech.Validate(mech.Spec{Kind: "pcax", Entries: 64, Assoc: 3}); err == nil {
		t.Error("Validate(pcax:64x3): want divisibility error")
	}
}

// checkAlgebra asserts the Stats contract every mechanism shares.
func checkAlgebra(t *testing.T, m mech.Mechanism) {
	t.Helper()
	s := m.Stats()
	if s.Lookups != s.Hits+s.Misses {
		t.Errorf("%s: Lookups (%d) != Hits (%d) + Misses (%d)", m.Kind(), s.Lookups, s.Hits, s.Misses)
	}
	if s.Allocs > s.Trains {
		t.Errorf("%s: Allocs (%d) > Trains (%d)", m.Kind(), s.Allocs, s.Trains)
	}
}

func TestStridePredicts(t *testing.T) {
	m, err := mech.New(mech.Spec{Kind: "stride", Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	const pc, base, stride = 17, 1000, 8
	for i := int64(0); i < 4; i++ {
		if _, ok := m.Lookup(pc); ok && i < 3 {
			t.Fatalf("predicted before confidence (train %d)", i)
		}
		m.Train(pc, base+i*stride)
	}
	addr, ok := m.Lookup(pc)
	if !ok || addr != base+4*stride {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", addr, ok, base+4*stride)
	}
	// A conflicting PC in the same direct-mapped slot evicts.
	m.Train(pc+64, 5000)
	if _, ok := m.Lookup(pc); ok {
		t.Fatal("predicted after conflict eviction")
	}
	checkAlgebra(t, m)
}

func TestPCAXPredicts(t *testing.T) {
	m, err := mech.New(mech.Spec{Kind: "pcax", Entries: 64, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	const pc, base, delta = 33, 2000, 16
	m.Train(pc, base)
	if _, ok := m.Lookup(pc); ok {
		t.Fatal("fresh entry predicted")
	}
	m.Train(pc, base+delta)
	if _, ok := m.Lookup(pc); ok {
		t.Fatal("one delta predicted")
	}
	m.Train(pc, base+2*delta)
	addr, ok := m.Lookup(pc)
	if !ok || addr != base+3*delta {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", addr, ok, base+3*delta)
	}
	// Associativity: three more PCs in the same set coexist with pc.
	for i := int64(1); i <= 3; i++ {
		m.Train(pc+16*i, 9000+i)
	}
	if _, ok := m.Lookup(pc); !ok {
		t.Fatal("entry lost despite free ways")
	}
	checkAlgebra(t, m)
}

// TestKindContract runs every registered kind, at its default geometry,
// through a train/lookup mix and checks the Stats algebra.
func TestKindContract(t *testing.T) {
	for _, kind := range mech.Kinds() {
		t.Run(kind, func(t *testing.T) {
			m, err := mech.New(mech.Spec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind() != kind {
				t.Fatalf("Kind() = %q, want %q", m.Kind(), kind)
			}
			for i := int64(0); i < 100; i++ {
				pc := i % 23
				m.Train(pc, 64*pc+8*i)
				m.Lookup((i * 7) % 23)
			}
			checkAlgebra(t, m)
		})
	}
}

// TestObserverToggle checks the observer hooks of every registered kind:
// attach, see an event for every counted lookup or train, detach. Kinds
// whose Lookup/Train never touch state (earlycalc, whose R_addr path the
// pipeline drives directly) count nothing and so owe no events.
func TestObserverToggle(t *testing.T) {
	for _, kind := range mech.Kinds() {
		t.Run(kind, func(t *testing.T) {
			m, err := mech.New(mech.Spec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			if m.HasObserver() {
				t.Fatal("fresh mechanism has observer")
			}
			var n int
			m.SetObserver(func(mech.Event) { n++ })
			if !m.HasObserver() {
				t.Fatal("observer not attached")
			}
			pre := m.Stats()
			m.Train(1, 100)
			m.Lookup(1)
			post := m.Stats()
			if counted := post.Lookups + post.Trains - pre.Lookups - pre.Trains; counted > 0 && n == 0 {
				t.Fatalf("observer saw no events for %d counted operations", counted)
			}
			m.SetObserver(nil)
			if m.HasObserver() {
				t.Fatal("observer not detached")
			}
			n = 0
			m.Train(2, 200)
			m.Lookup(2)
			if n != 0 {
				t.Fatalf("detached observer saw %d events", n)
			}
			checkAlgebra(t, m)
		})
	}
}
