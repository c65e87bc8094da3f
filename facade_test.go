package elag_test

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"elag"
	"elag/internal/passman"
	"elag/internal/workload"
)

func TestBuildAsmAndClassify(t *testing.T) {
	p, err := elag.BuildAsm(`
	main:	li r2, 4096
	loop:	ld8_n r3, r2(0)
		ld8_n r2, r2(8)
		bne r2, 0, loop
		halt r0
	`, true, elag.ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Classes == nil || p.Classes.StaticEC != 2 {
		t.Errorf("chase loads not classified EC: %s", p.Classes)
	}
	// Without classification every load stays ld_n.
	p2, err := elag.BuildAsm("main: ld8_n r1, r2(0)\nhalt r0", false, elag.ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Classes != nil {
		t.Errorf("classification present although disabled")
	}
}

func TestObjectRoundTripPreservesBehaviour(t *testing.T) {
	p, err := elag.Build(smokeSrc, elag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := p.Object()
	if err != nil {
		t.Fatal(err)
	}
	q, err := elag.LoadObject(buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output() != r2.Output() {
		t.Errorf("object round trip changed behaviour:\n%s\n%s", r1.Output(), r2.Output())
	}
	// Classification is carried in the flavours.
	if q.Classes.StaticPD != p.Classes.StaticPD || q.Classes.StaticEC != p.Classes.StaticEC {
		t.Errorf("classification lost: %s vs %s", p.Classes, q.Classes)
	}
	// Timing must be identical too (same flavours, same code).
	m1, _, err := p.Simulate(elag.CompilerDirectedConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := q.Simulate(elag.CompilerDirectedConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles {
		t.Errorf("cycles differ after round trip: %d vs %d", m1.Cycles, m2.Cycles)
	}
}

// TestObjectRoundTripKeepsClasses: the classes LoadObject reads back from
// the flavours of every workload's object are the classes the build gave
// each load, with the same per-class counts.
func TestObjectRoundTripKeepsClasses(t *testing.T) {
	for _, w := range workload.All() {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		buf, err := p.Object()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		q, err := elag.LoadObject(buf)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		want, got := p.Classes, q.Classes
		if !maps.Equal(got.ByPC, want.ByPC) {
			t.Errorf("%s: classes differ after the round trip", w.Name)
		}
		if got.StaticNT != want.StaticNT || got.StaticPD != want.StaticPD || got.StaticEC != want.StaticEC {
			t.Errorf("%s: counts %s after the round trip, %s before", w.Name, got, want)
		}
	}
}

func TestLoadObjectRejectsGarbage(t *testing.T) {
	if _, err := elag.LoadObject([]byte("definitely not an object")); err == nil {
		t.Errorf("garbage object accepted")
	}
}

func TestStageView(t *testing.T) {
	p, err := elag.Build(`
int a[32];
int main() {
	int s = 0;
	for (int i = 0; i < 32; i++) { s += a[i]; }
	return s;
}`, elag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := p.StageView(elag.CompilerDirectedConfig(), 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(view, "F") || !strings.Contains(view, "X") {
		t.Errorf("stage view missing stages:\n%s", view)
	}
	if len(strings.Split(strings.TrimSpace(view), "\n")) != 21 { // header + 20 rows
		t.Errorf("stage view row count wrong:\n%s", view)
	}
}

func TestSpeedupHelper(t *testing.T) {
	p, err := elag.Build(`
int a[256];
int main() {
	int s = 0;
	for (int it = 0; it < 30; it++) {
		for (int i = 0; i < 256; i++) { s += a[i]; }
	}
	return s & 255;
}`, elag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := elag.Speedup(p, elag.CompilerDirectedConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1.0 {
		t.Errorf("strided sum did not speed up: %.3f", sp)
	}
}

func TestApplyProfileIsIdempotent(t *testing.T) {
	p, err := elag.Build(smokeSrc, elag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := p.Profile(0)
	if err != nil {
		t.Fatal(err)
	}
	c1 := p.ApplyProfile(lp, 0)
	c2 := p.ApplyProfile(lp, 0)
	if c1.StaticPD != c2.StaticPD || c1.StaticNT != c2.StaticNT {
		t.Errorf("reapplying the same profile changed the classification")
	}
}

// TestApplyProfileClassifiesFirst: a program built without classification
// is classified before the profile promotes its loads, so it ends up with
// the classification and flavours of a classified build's promotion.
func TestApplyProfileClassifiesFirst(t *testing.T) {
	classified, err := elag.Build(smokeSrc, elag.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := elag.Build(smokeSrc, elag.BuildOptions{DisableClassify: true})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := bare.Profile(0)
	if err != nil {
		t.Fatal(err)
	}
	want := classified.ApplyProfile(lp, 0).String()
	if got := bare.ApplyProfile(lp, 0).String(); got != want {
		t.Errorf("unclassified build promoted to %s, classified build to %s", got, want)
	}
	a, _ := classified.Object()
	b, _ := bare.Object()
	if string(a) != string(b) {
		t.Error("promoted flavours differ between the classified and unclassified builds")
	}
}

func TestBuildErrorsAreReported(t *testing.T) {
	if _, err := elag.Build("int main( {", elag.BuildOptions{}); err == nil {
		t.Errorf("syntax error not reported")
	}
	if _, err := elag.BuildAsm("bogus r1, r2", false, elag.ClassifyOptions{}); err == nil {
		t.Errorf("assembler error not reported")
	}
	// Front-end diagnostics carry a typed line:col position.
	_, err := elag.Build("int main() {\n\treturn nope;\n}", elag.BuildOptions{})
	var se *elag.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("build error %v is not a SourceError", err)
	}
	if se.Line != 2 || se.Col == 0 {
		t.Errorf("diagnostic position %d:%d, want line 2 with a column", se.Line, se.Col)
	}
}

const facadeLoopSrc = `
int g[16];
int main() {
	int s = 0;
	for (int i = 0; i < 16; i = i + 1) { g[i] = i * 3; s = s + g[i]; }
	print_int(s);
	return s & 255;
}`

// TestBuildOptLevels: every O level must build through the facade and
// produce the same architectural output; O0 must skip optimization.
func TestBuildOptLevels(t *testing.T) {
	var ref string
	for i, lvl := range []elag.OptLevel{elag.O0, elag.O1, elag.O2} {
		p, err := elag.Build(facadeLoopSrc, elag.BuildOptions{Level: lvl})
		if err != nil {
			t.Fatalf("level %v: %v", lvl, err)
		}
		if p.Pipeline == "" {
			t.Errorf("level %v: no pipeline recorded", lvl)
		}
		res, err := p.Run(0)
		if err != nil {
			t.Fatalf("level %v: %v", lvl, err)
		}
		if i == 0 {
			ref = res.Output()
		} else if res.Output() != ref {
			t.Errorf("level %v output %q != O0 %q", lvl, res.Output(), ref)
		}
	}
	p0, err := elag.Build(facadeLoopSrc, elag.BuildOptions{Level: elag.O0})
	if err != nil {
		t.Fatal(err)
	}
	if p0.Pipeline != "lower,classify" {
		t.Errorf("O0 pipeline = %q, want lower,classify", p0.Pipeline)
	}
}

// TestBuildExplicitPasses: a -passes-style spec drives the build, and the
// requested IR dumps come back on the program.
func TestBuildExplicitPasses(t *testing.T) {
	var stats elag.PassStats
	p, err := elag.Build(facadeLoopSrc, elag.BuildOptions{
		Passes: "fixpoint:2(constprop,dce)",
		Stats:  &stats,
		DumpIR: "dce",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Pipeline != "fixpoint:2(constprop,dce),lower,classify" {
		t.Errorf("pipeline = %q", p.Pipeline)
	}
	again, err := elag.Build(facadeLoopSrc, elag.BuildOptions{Passes: p.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	if again.Pipeline != p.Pipeline || again.Asm != p.Asm {
		t.Errorf("rebuilding from the reported pipeline %q gave %q and different code", p.Pipeline, again.Pipeline)
	}
	if len(p.PassDumps) == 0 {
		t.Error("no IR dumps for dce")
	}
	for _, d := range p.PassDumps {
		if d.Pass != "dce" {
			t.Errorf("dump for %q, want dce", d.Pass)
		}
	}
	found := false
	for _, ps := range stats.Passes() {
		if ps.Name == "constprop" && ps.Runs > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no stats recorded for constprop")
	}
	if _, err := elag.Build(facadeLoopSrc, elag.BuildOptions{Passes: "bogus"}); err == nil {
		t.Error("unknown pass accepted")
	}
}

// TestEveryListedPassBuilds: each pass -help-passes lists builds a
// program when placed in a minimal spec (IR passes before lower, classify
// after it), and the list is exactly the eight per-function passes plus
// inline, matsym, lower and classify.
func TestEveryListedPassBuilds(t *testing.T) {
	names := passman.Names()
	want := "coalesce,constprop,copyprop,cse,dce,iv,licm,rle,inline,matsym,lower,classify"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("Names() = %s, want %s", got, want)
	}
	ref, err := elag.Build(facadeLoopSrc, elag.BuildOptions{Level: elag.O0})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		spec := n + ",lower"
		switch n {
		case "lower":
			spec = "lower"
		case "classify":
			spec = "lower,classify"
		}
		p, err := elag.Build(facadeLoopSrc, elag.BuildOptions{Passes: spec})
		if err != nil {
			t.Errorf("pass %s (spec %q): %v", n, spec, err)
			continue
		}
		if res, err := p.Run(0); err != nil || res.Output() != refRes.Output() {
			t.Errorf("pass %s (spec %q): output %q, %v; want %q", n, spec, res.Output(), err, refRes.Output())
		}
	}
}
