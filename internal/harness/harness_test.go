package harness_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"elag"
	"elag/internal/harness"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// ctx is the no-deadline context the tests run under; cancellation paths
// have their own dedicated tests.
var ctx = context.Background()

// quickRunner bounds per-benchmark work so the experiment tests stay fast;
// the full-length runs live in the top-level benchmark harness.
func quickRunner() *harness.Runner {
	return &harness.Runner{Fuel: 250_000}
}

func TestLabPreparesEverything(t *testing.T) {
	r := quickRunner()
	l, err := r.Lab(ctx, workload.Get("023.eqntott"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Heur == nil || l.Reclass == nil || l.Profile == nil {
		t.Fatalf("lab incomplete")
	}
	if l.EmuRes.DynamicInsts == 0 {
		t.Fatalf("no architectural run recorded")
	}
	// The lab's result is the profiler's run; a replay re-streams the same
	// execution, so it retires exactly as many instructions.
	ms, err := l.SimulateBatch(ctx, []pipeline.BatchSpec{{Config: pipeline.Config{}}})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Insts != l.EmuRes.DynamicInsts {
		t.Fatalf("base replay retired %d, lab recorded %d", ms[0].Insts, l.EmuRes.DynamicInsts)
	}
	if ms[0].Cycles <= 0 {
		t.Fatalf("base cycles = %d", ms[0].Cycles)
	}
	// Lab caching: same pointer for the same workload.
	l2, err := r.Lab(ctx, workload.Get("023.eqntott"))
	if err != nil {
		t.Fatal(err)
	}
	if l2 != l {
		t.Errorf("lab not cached")
	}
}

func TestSpeedupsAtLeastNotAbsurd(t *testing.T) {
	r := quickRunner()
	l, err := r.Lab(ctx, workload.Get("008.espresso"))
	if err != nil {
		t.Fatal(err)
	}
	specs := []pipeline.BatchSpec{{Config: elag.CompilerDirectedConfig(), Flavors: l.HeurFlavors}}
	sp, err := l.Speedups(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if sp[0] < 0.9 || sp[0] > 4 {
		t.Errorf("espresso compiler-dual speedup = %.2f out of plausible range", sp[0])
	}
	// The first call measured the base architecture in its batch; a
	// second call reuses that count and must agree bit for bit.
	again, err := l.Speedups(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != sp[0] {
		t.Errorf("second Speedups call = %v, first = %v", again[0], sp[0])
	}
}

// TestDocumentBuildsEachLabOnce: a full Document builds every workload's
// lab exactly once and streams each lab once per replaying experiment —
// the SPEC labs for table3, fig5a, fig5b and fig5c, the MediaBench labs
// for table4 and embedded. The base architecture rides in each lab's first
// speedup batch, so it costs no stream of its own.
func TestDocumentBuildsEachLabOnce(t *testing.T) {
	var log bytes.Buffer
	c := &harness.Counters{}
	r := &harness.Runner{Fuel: 20_000, Log: &log, Counters: c}
	if _, err := r.Document(ctx); err != nil {
		t.Fatal(err)
	}
	builds := map[string]int{}
	for _, line := range strings.Split(log.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "build "); ok {
			builds[name]++
		}
	}
	all := workload.All()
	if got := c.LabMisses.Load(); got != int64(len(all)) {
		t.Errorf("built %d labs, want %d", got, len(all))
	}
	insts := c.Insts.Load()
	var want int64
	for _, w := range all {
		if builds[w.Name] != 1 {
			t.Errorf("%s: built %d times, want once", w.Name, builds[w.Name])
		}
		l, err := r.Lab(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		switch w.Suite {
		case workload.SPEC:
			want += 4 * l.EmuRes.DynamicInsts
		case workload.Media:
			want += 2 * l.EmuRes.DynamicInsts
		}
	}
	if insts != want {
		t.Errorf("streamed %d entries, want %d (4 per SPEC lab instruction, 2 per MediaBench)", insts, want)
	}
}

// TestDocumentExp: a named experiment fills exactly its own field of the
// document, with the bytes the full document has there; "all" is the full
// document, and an unknown name is an error.
func TestDocumentExp(t *testing.T) {
	r := &harness.Runner{Fuel: 20_000}
	full, err := r.Document(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Document leaves the mechanism figure out; figmech's reference is the
	// figure itself.
	if full.FigureMech, err = r.FigureMech(ctx); err != nil {
		t.Fatal(err)
	}
	marshal := func(doc *harness.BenchDocument) string {
		var b bytes.Buffer
		if err := harness.WriteBenchJSON(&b, doc); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	empty := marshal(&harness.BenchDocument{Schema: full.Schema, Fuel: full.Fuel})
	for _, e := range []struct {
		exp  string
		copy func(dst, src *harness.BenchDocument)
	}{
		{"table2", func(d, s *harness.BenchDocument) { d.Table2 = s.Table2 }},
		{"table3", func(d, s *harness.BenchDocument) { d.Table3 = s.Table3 }},
		{"table4", func(d, s *harness.BenchDocument) { d.Table4 = s.Table4 }},
		{"fig5a", func(d, s *harness.BenchDocument) { d.Figure5a = s.Figure5a }},
		{"fig5b", func(d, s *harness.BenchDocument) { d.Figure5b = s.Figure5b }},
		{"fig5c", func(d, s *harness.BenchDocument) { d.Figure5c = s.Figure5c }},
		{"embedded", func(d, s *harness.BenchDocument) { d.Embedded = s.Embedded }},
		{"figmech", func(d, s *harness.BenchDocument) { d.FigureMech = s.FigureMech }},
	} {
		want := &harness.BenchDocument{Schema: full.Schema, Fuel: full.Fuel}
		e.copy(want, full)
		if marshal(want) == empty {
			t.Fatalf("%s: the full document has nothing in its field", e.exp)
		}
		doc, err := r.DocumentExp(ctx, e.exp)
		if err != nil {
			t.Fatalf("%s: %v", e.exp, err)
		}
		if marshal(doc) != marshal(want) {
			t.Errorf("%s: document is not the full document's %s field alone", e.exp, e.exp)
		}
	}
	full.FigureMech = nil
	doc, err := r.DocumentExp(ctx, "all")
	if err != nil {
		t.Fatal(err)
	}
	if marshal(doc) != marshal(full) {
		t.Errorf(`DocumentExp("all") differs from Document`)
	}
	if _, err := r.DocumentExp(ctx, "bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown experiment: err %v, want one naming it", err)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 12 SPEC-like benchmarks")
	}
	r := quickRunner()
	rows, err := r.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 { // 12 benchmarks + average
		t.Fatalf("%d rows, want 13", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Name != "average" {
		t.Fatalf("last row is %q", avg.Name)
	}
	// The paper's headline classification property: PD loads predict far
	// better than NT loads on average.
	if avg.RatePD <= avg.RateNT {
		t.Errorf("PD rate (%.1f) not above NT rate (%.1f): classification "+
			"is not separating predictable loads", avg.RatePD, avg.RateNT)
	}
	if avg.RatePD < 80 {
		t.Errorf("average PD prediction rate %.1f < 80%%", avg.RatePD)
	}
	for _, row := range rows {
		sum := row.StaticNT + row.StaticPD + row.StaticEC
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: static shares sum to %.2f", row.Name, sum)
		}
		dsum := row.DynNT + row.DynPD + row.DynEC
		if dsum < 99.9 || dsum > 100.1 {
			t.Errorf("%s: dynamic shares sum to %.2f", row.Name, dsum)
		}
	}
	out := harness.FormatTable2(rows)
	if len(out) == 0 {
		t.Errorf("empty rendering")
	}
}

func TestTable3ProfileNeverHurtsMuch(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	t3, err := r.Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3) != 13 {
		t.Fatalf("%d rows", len(t3))
	}
	avg := t3[len(t3)-1]
	if avg.Speedup < 1.0 {
		t.Errorf("average profiled speedup %.3f < 1.0", avg.Speedup)
	}
	_ = harness.FormatTable3(t3)
}

func TestFigure5aCompilerHelpsSmallTables(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	fig, err := r.Figure5a(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("%d series", len(fig.Series))
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Average
	}
	// Larger tables never hurt on average.
	if byLabel["hw-only 32"] < byLabel["hw-only 8"]-0.01 {
		t.Errorf("larger hw-only table slower: %v", byLabel)
	}
	if byLabel["compiler 32"] < byLabel["compiler 8"]-0.01 {
		t.Errorf("larger compiler table slower: %v", byLabel)
	}
	// The paper's contention argument: with a small table, keeping
	// unpredictable loads out (compiler support) must help.
	if byLabel["compiler 8"] < byLabel["hw-only 8"]-0.02 {
		t.Errorf("compiler support hurt at the smallest table: %v", byLabel)
	}
	_ = harness.FormatFigure(fig)
}

func TestFigure5cOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	fig, err := r.Figure5c(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Average
	}
	// The paper's headline orderings.
	if byLabel["compiler dual+profile"] < byLabel["compiler dual"]-0.005 {
		t.Errorf("profiling hurt the compiler scheme: %v", byLabel)
	}
	if byLabel["compiler dual"] <= byLabel["hw-dual"] {
		t.Errorf("compiler-directed dual did not beat the hardware-only dual: %v", byLabel)
	}
}

func TestTable4MediaBench(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	rows, err := r.Table4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 13 + average
		t.Fatalf("%d rows", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Speedup < 1.0 {
		t.Errorf("MediaBench average speedup %.3f < 1", avg.Speedup)
	}
	if avg.RatePD <= avg.RateNT {
		t.Errorf("MediaBench PD rate not above NT rate: %.1f vs %.1f",
			avg.RatePD, avg.RateNT)
	}
	_ = harness.FormatTable4(rows)
}

func TestEmbeddedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	rows, err := r.Embedded(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("%d rows", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.CompilerSpeedup < 1.0 {
		t.Errorf("embedded compiler speedup %.3f < 1", avg.CompilerSpeedup)
	}
	// The Section 5.4 argument: the compiler scheme with 1/8th of the
	// register-cache hardware must at least match the hardware-only dual.
	if avg.CompilerSpeedup < avg.HWDualSpeedup-0.02 {
		t.Errorf("embedded compiler (%.3f) fell behind hw-dual (%.3f)",
			avg.CompilerSpeedup, avg.HWDualSpeedup)
	}
	_ = harness.FormatEmbedded(rows)
}
