package addrpred

import (
	"testing"
	"testing/quick"
)

func mustNewTable(tb testing.TB, cfg Config) *Table {
	tb.Helper()
	t, err := NewTable(cfg)
	if err != nil {
		tb.Fatalf("NewTable(%+v): %v", cfg, err)
	}
	return t
}

func TestBadGeometryErrors(t *testing.T) {
	bad := []Config{{Entries: 3}, {Entries: -16}, {Entries: 16, Assoc: 3}, {Entries: 16, Assoc: -1}}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		if tb, err := NewTable(cfg); err == nil || tb != nil {
			t.Errorf("NewTable(%+v) = %v, %v; want nil, error", cfg, tb, err)
		}
	}
}

// TestEntryLearnsStride walks the Figure 3 state machine through the
// paper's canonical sequence: allocate at A, observe A+8, verify at A+16,
// then predict correctly from A+24 on.
func TestEntryLearnsStride(t *testing.T) {
	var e Entry
	e.Update(1000) // Replace: PA=1000, ST=0, STC=1, functioning
	if e.State != Functioning || !e.STC || e.PA != 1000 || e.ST != 0 {
		t.Fatalf("after allocate: %+v", e)
	}
	// Constant-address prediction would now be 1000.
	if p, ok := e.Predict(); !ok || p != 1000 {
		t.Fatalf("constant prediction = %d,%v", p, ok)
	}
	// New_Stride: 1008 != 1000.
	if e.Update(1008) {
		t.Errorf("mispredicted update reported correct")
	}
	if e.State != Learning || e.STC || e.ST != 8 {
		t.Fatalf("after stride change: %+v", e)
	}
	if _, ok := e.Predict(); ok {
		t.Errorf("learning entry made a prediction")
	}
	// Verified_Stride: 1016-1008 == 8.
	e.Update(1016)
	if e.State != Functioning || !e.STC || e.PA != 1024 {
		t.Fatalf("after verification: %+v", e)
	}
	// Correct predictions from here on.
	for i, ca := range []int64{1024, 1032, 1040} {
		if !e.Update(ca) {
			t.Errorf("step %d: steady stride not predicted", i)
		}
	}
}

func TestEntryConstantAddress(t *testing.T) {
	var e Entry
	e.Update(500)
	for i := 0; i < 5; i++ {
		if !e.Update(500) {
			t.Errorf("constant address not predicted at step %d", i)
		}
	}
}

func TestEntryStrideRelearn(t *testing.T) {
	var e Entry
	for _, ca := range []int64{0, 8, 16, 24} {
		e.Update(ca)
	}
	// Stride changes from 8 to 32. The first mismatching update derives
	// ST = CA - PA from the *failed prediction* (56 - 32 = 24), so a
	// break out of the functioning state needs one extra observation
	// before the true stride verifies — exactly the Figure 3b table.
	if e.Update(56) {
		t.Errorf("stride break predicted")
	}
	if e.State != Learning || e.ST != 24 {
		t.Fatalf("after break: %+v", e)
	}
	e.Update(88) // observes stride 32, still learning
	if e.State != Learning || e.ST != 32 {
		t.Fatalf("after first true stride: %+v", e)
	}
	e.Update(120) // verifies stride 32
	if e.State != Functioning || e.ST != 32 {
		t.Fatalf("did not relearn stride 32: %+v", e)
	}
	if !e.Update(152) {
		t.Errorf("relearned stride not predicting")
	}
}

// Property: after any warm-up address sequence, two consecutive
// same-stride observations make the entry predict the third correctly —
// the paper's "stride confidence will not be built until the same stride
// is seen in two consecutive instances".
func TestEntryConvergesAfterTwoStrides(t *testing.T) {
	f := func(warmup []int64, base, stride int64) bool {
		stride %= 1 << 20
		if stride == 0 {
			stride = 8
		}
		var e Entry
		for _, a := range warmup {
			e.Update(a)
		}
		a := base
		e.Update(a)            // possibly a stride break
		e.Update(a + stride)   // learn stride
		e.Update(a + 2*stride) // verify stride
		// Now it must predict a+3*stride.
		p, ok := e.Predict()
		return ok && p == a+3*stride
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableProbeUpdateAllocate(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 16})
	if _, ok := tb.Probe(5); ok {
		t.Errorf("cold probe predicted")
	}
	tb.Update(5, 100) // allocate
	if addr, ok := tb.Probe(5); !ok || addr != 100 {
		t.Errorf("probe after allocate = %d,%v", addr, ok)
	}
	st := tb.Stats()
	if st.Allocations != 1 || st.Probes != 2 || st.ProbeHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestTableStridedFeed pins the default table's machine: a strided load
// allocates, learns, verifies, and then predicts, so of 0,8,16,24,32 only
// the last two are predicted correctly.
func TestTableStridedFeed(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 16})
	correct := 0
	for _, ca := range []int64{0, 8, 16, 24, 32} {
		if tb.Update(5, ca).Correct {
			correct++
		}
	}
	if correct != 2 {
		t.Errorf("strided feed correct = %d, want 2 (24 and 32)", correct)
	}
}

// TestTableSteps: Update reports each training step, with From read before
// the entry's state machine advances: the Replace arc allocates into
// functioning, then the Figure 3 arcs of a strided feed.
func TestTableSteps(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 16})
	for i, want := range []Step{
		{To: Functioning, Alloc: true},                      // 0: replace
		{From: Functioning, To: Learning},                   // 8: new stride
		{From: Learning, To: Functioning},                   // 16: verified stride
		{From: Functioning, To: Functioning, Correct: true}, // 24: correct
	} {
		if got := tb.Update(5, int64(8*i)); got != want {
			t.Errorf("update %d: step %+v, want %+v", i, got, want)
		}
	}
}

func TestTableConflictEviction(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 16})
	tb.Update(3, 100)
	tb.Update(3+16, 200) // same direct-mapped set
	if _, ok := tb.Probe(3); ok {
		t.Errorf("evicted entry still predicting")
	}
	if addr, ok := tb.Probe(3 + 16); !ok || addr != 200 {
		t.Errorf("new entry wrong: %d %v", addr, ok)
	}
}

func TestTableAssociativityKeepsBoth(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 32, Assoc: 2})
	tb.Update(3, 100)
	tb.Update(3+16, 200)
	if _, ok := tb.Probe(3); !ok {
		t.Errorf("2-way table lost the first entry")
	}
	if _, ok := tb.Probe(3 + 16); !ok {
		t.Errorf("2-way table lost the second entry")
	}
}

func TestTableAccuracyStats(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 16})
	for i, ca := range []int64{0, 8, 16, 24, 32} {
		if _, ok := tb.Probe(7); ok {
			tb.Update(7, ca)
			continue
		}
		_ = i
		tb.Update(7, ca)
	}
	st := tb.Stats()
	if st.Predictions == 0 || st.Correct == 0 {
		t.Errorf("no predictions recorded: %+v", st)
	}
	if st.Accuracy() <= 0 || st.Accuracy() > 1 {
		t.Errorf("accuracy out of range: %v", st.Accuracy())
	}
}

func TestUpdateIfPresent(t *testing.T) {
	tb := mustNewTable(t, Config{Entries: 16})
	if _, trained := tb.UpdateIfPresent(9, 100); trained {
		t.Errorf("UpdateIfPresent trained an absent entry")
	}
	if _, ok := tb.Probe(9); ok {
		t.Errorf("UpdateIfPresent allocated an entry")
	}
	tb.Update(9, 100)
	tb.UpdateIfPresent(9, 108)
	tb.UpdateIfPresent(9, 116) // verifies stride 8
	if addr, ok := tb.Probe(9); !ok || addr != 124 {
		t.Errorf("entry not trained through UpdateIfPresent: %d,%v", addr, ok)
	}
}

// Property: the table never reports a correct prediction that Predict
// would not have made (wasCorrect implies the pre-update Predict matched).
func TestTableCorrectnessConsistency(t *testing.T) {
	f := func(pcs []uint8, addrs []int64) bool {
		tb := mustNewTable(t, Config{Entries: 8})
		n := len(pcs)
		if len(addrs) < n {
			n = len(addrs)
		}
		for i := 0; i < n; i++ {
			pc := int(pcs[i] % 32)
			pred, ok := tb.Probe(pc)
			correct := tb.Update(pc, addrs[i]).Correct
			if correct && (!ok || pred != addrs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
