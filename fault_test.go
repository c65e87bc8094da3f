package elag_test

import (
	"errors"
	"strings"
	"testing"

	"elag"
)

// buildAsm assembles without classification, failing the test on error.
func buildAsm(t *testing.T, src string) *elag.Program {
	t.Helper()
	p, err := elag.BuildAsm(src, false, elag.ClassifyOptions{})
	if err != nil {
		t.Fatalf("BuildAsm: %v", err)
	}
	return p
}

// assertFaultKind checks that err carries an *elag.Fault of the given
// kind through the public facade.
func assertFaultKind(t *testing.T, err error, kind elag.FaultKind) {
	t.Helper()
	var f *elag.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %T (%v), want *elag.Fault", err, err)
	}
	if f.Kind != kind {
		t.Fatalf("fault kind = %v, want %v", f.Kind, kind)
	}
	if !errors.Is(err, &elag.Fault{Kind: kind}) {
		t.Errorf("errors.Is kind template did not match %v", err)
	}
}

func TestFacadeFaultKinds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind elag.FaultKind
	}{
		{"misaligned-load", "main:\tli r2, 4\n\tld8_n r1, r2(0)\n\thalt r1",
			elag.FaultMisaligned},
		{"oob-store", "main:\tli r2, -8\n\tst8 r1, r2(0)\n\thalt r1",
			elag.FaultOutOfBounds},
		{"jump-past-end", "main:\tli r5, 1000\n\tjr r5",
			elag.FaultBadPC},
		{"div-zero", "main:\tdiv r1, r1, r0\n\thalt r1",
			elag.FaultDivZero},
		{"fuel", "main:\tjmp main",
			elag.FaultFuel},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := buildAsm(t, c.src)
			_, err := p.Run(100)
			assertFaultKind(t, err, c.kind)
			// The same fault must surface through the timing
			// simulator's emulation step.
			_, _, err = p.Simulate(elag.BaseConfig(), 100)
			if c.kind == elag.FaultFuel {
				// Simulate treats a fuel-truncated trace as a
				// valid prefix, not an error.
				if err != nil {
					t.Errorf("Simulate on truncated run: %v", err)
				}
				return
			}
			assertFaultKind(t, err, c.kind)
		})
	}
}

func TestErrFuelMatchesFacade(t *testing.T) {
	p := buildAsm(t, "main:\tjmp main")
	_, err := p.Run(50)
	if !errors.Is(err, elag.ErrFuel) {
		t.Errorf("err = %v, want ErrFuel match", err)
	}
}

func TestSimConfigValidate(t *testing.T) {
	good := elag.BaseConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("base config invalid: %v", err)
	}
	pred := func(n int) elag.MechSpec { return elag.MechSpec{Kind: "addrpred", Entries: n} }
	rc := func(n int) elag.MechSpec { return elag.MechSpec{Kind: "earlycalc", Entries: n} }
	bad := []elag.SimConfig{
		{IssueWidth: -1},
		{FetchWidth: 1000},
		{DCache: elag.CompilerDirectedConfig().DCache, LatDiv: -3},
		{Select: elag.SelCompiler, Mechanisms: []elag.MechSpec{pred(3)}},
		{Select: elag.SelCompiler, Mechanisms: []elag.MechSpec{rc(-1)}},
		{Select: elag.Selection(99)},
		// A paper structure the selection policy never uses.
		{Mechanisms: []elag.MechSpec{pred(1024)}},
		{Select: elag.SelAllEarly, Mechanisms: []elag.MechSpec{rc(16), pred(1024)}},
		{Mechanisms: []elag.MechSpec{rc(4)}},
		{Select: elag.SelAllPredict, Mechanisms: []elag.MechSpec{pred(256), rc(4)}},
		// Structures configured twice, clashing assists, unknown kinds.
		{Select: elag.SelCompiler, Mechanisms: []elag.MechSpec{pred(256), pred(64)}},
		{Select: elag.SelCompiler, Mechanisms: []elag.MechSpec{rc(1), rc(1)}},
		{Mechanisms: []elag.MechSpec{{Kind: "stride"}, {Kind: "pcax"}}},
		{Select: elag.SelCompiler, Mechanisms: []elag.MechSpec{{Kind: "stride"}, pred(256)}},
		{Mechanisms: []elag.MechSpec{{Kind: "no-such-kind"}}},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, cfg)
			continue
		}
		if strings.TrimSpace(err.Error()) == "" {
			t.Errorf("case %d: empty error message", i)
		}
		// A bad config must also be rejected at simulation time,
		// as an error — never a panic.
		p := buildAsm(t, "main:\thalt r0")
		if _, _, serr := p.Simulate(cfg, 10); serr == nil {
			t.Errorf("case %d: Simulate accepted invalid config", i)
		}
	}
}

func TestStageViewRejectsBadConfig(t *testing.T) {
	p := buildAsm(t, "main:\tli r1, 1\n\thalt r1")
	if _, err := p.StageView(elag.SimConfig{IssueWidth: -1}, 100, 10); err == nil {
		t.Errorf("StageView accepted invalid config")
	}
}
