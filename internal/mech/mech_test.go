package mech_test

import (
	"slices"
	"testing"

	"elag/internal/mech"
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
	// parse back from its String form. The machine table and the assists
	// are the two lists every configuration is built from. This test
	// links only mech and pipeline, so it also checks that a binary
	// linking the pipeline knows every kind it configures.
	specs := append([]mech.Spec(nil), pipeline.AssistSpecs...)
	for _, m := range pipeline.Machines {
		specs = append(specs, m.Select.Config(m.Table, m.Regs).Mechanisms...)
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

// TestRegistry checks the kind table: exactly the four kinds, sorted, one
// Describe row each, and the lookup and geometry errors.
func TestRegistry(t *testing.T) {
	kinds := mech.Kinds()
	if want := []string{"addrpred", "earlycalc", "pcax", "stride"}; !slices.Equal(kinds, want) {
		t.Fatalf("Kinds() = %v, want %v", kinds, want)
	}
	rows := mech.Describe()
	if len(rows) != len(kinds) {
		t.Fatalf("Describe() rows (%d) != Kinds() (%d)", len(rows), len(kinds))
	}
	for i, r := range rows {
		if r.Kind != kinds[i] || r.Desc == "" {
			t.Errorf("Describe()[%d] = %+v, want kind %s with a description", i, r, kinds[i])
		}
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
		t.Errorf("Lookups (%d) != Hits (%d) + Misses (%d)", s.Lookups, s.Hits, s.Misses)
	}
	if s.Allocs > s.Trains {
		t.Errorf("Allocs (%d) > Trains (%d)", s.Allocs, s.Trains)
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

// TestKindContract runs every assist kind, at its default geometry,
// through a train/lookup mix: the allocations Train reports sum to
// Stats().Allocs and the Stats algebra holds. New rejects the paper kinds,
// which only the pipeline builds.
func TestKindContract(t *testing.T) {
	for _, kind := range mech.Kinds() {
		t.Run(kind, func(t *testing.T) {
			m, err := mech.New(mech.Spec{Kind: kind})
			if kind == "addrpred" || kind == "earlycalc" {
				if err == nil {
					t.Fatalf("New(%s) = nil error, want the paper kind rejected", kind)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var allocs int64
			for i := int64(0); i < 100; i++ {
				pc := i % 23
				if m.Train(pc, 64*pc+8*i) {
					allocs++
				}
				m.Lookup((i * 7) % 23)
			}
			if got := m.Stats().Allocs; got != allocs || allocs == 0 {
				t.Errorf("Train reported %d allocations, Stats().Allocs = %d", allocs, got)
			}
			checkAlgebra(t, m)
		})
	}
}
