package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"elag/internal/asm"
	"elag/internal/asm/asmtest"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
)

// predSpec and rcSpec spell the paper's prediction table and register
// cache with n entries.
func predSpec(n int) mech.Spec { return mech.Spec{Kind: "addrpred", Entries: n} }
func rcSpec(n int) mech.Spec   { return mech.Spec{Kind: "earlycalc", Entries: n} }

func sim(t *testing.T, cfg Config, src string) *Metrics {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ms, _, err := Replay(context.Background(), p, []BatchSpec{{Config: cfg}}, Options{Fuel: 10_000_000})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return ms[0]
}

func mustSim(t *testing.T, cfg Config, p *isa.Program) *Sim {
	t.Helper()
	s, err := New(cfg, p, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// loopOf builds a program running body (with label "loop" available) n times.
func loopOf(n int, body string) string {
	return `
	main:	li r9, 0
		li r20, 65536
		li r21, 139264    ; NOT 64K from r20 (would alias in the D-cache)
	loop:	` + body + `
		add r9, r9, 1
		blt r9, ` + itoa(n) + `, loop
		halt r0
	`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestBaseLoadUseStall(t *testing.T) {
	// In an in-order pipe a dependent use couples iterations to the
	// 2-cycle load latency (Figure 1a); an independent add does not.
	dep := sim(t, Config{}, loopOf(10000, `
		ld8_n r1, r20(0)
		add r2, r1, 1
	`))
	indep := sim(t, Config{}, loopOf(10000, `
		ld8_n r1, r20(0)
		add r2, r3, 1
	`))
	if dep.Cycles <= indep.Cycles {
		t.Errorf("load-use stall not modeled: dep=%d indep=%d", dep.Cycles, indep.Cycles)
	}
	if dep.AvgLoadLatency() < 2 {
		t.Errorf("base load latency %.2f < 2", dep.AvgLoadLatency())
	}
}

func TestPredictPathForwardsStridedLoad(t *testing.T) {
	cfg := Config{Select: SelCompiler, Mechanisms: []mech.Spec{predSpec(256)}}
	// 6000 iterations x 8 bytes stay within the 64K cache, so nearly
	// every speculative access is a true hit.
	m := sim(t, cfg, loopOf(6000, `
		ld8_p r1, r20(0)
		add r2, r1, 1
		add r20, r20, 8
	`))
	if m.Predict.Eligible == 0 {
		t.Fatalf("no loads took the predict path: %+v", m.Predict)
	}
	if rate := m.Predict.ForwardRate(); rate < 0.85 {
		t.Errorf("strided ld_p forward rate = %.2f, want > 0.85 (%+v)", rate, m.Predict)
	}
	if m.OneCycleLoads == 0 {
		t.Errorf("no one-cycle loads recorded")
	}
	base := sim(t, Config{}, loopOf(6000, `
		ld8_p r1, r20(0)
		add r2, r1, 1
		add r20, r20, 8
	`))
	if m.Cycles >= base.Cycles {
		t.Errorf("prediction did not speed up strided loop: %d vs %d", m.Cycles, base.Cycles)
	}
}

func TestPredictPathUselessOnRandomAddresses(t *testing.T) {
	// A load whose address is derived from its own loaded value (a
	// pointer chase through a shuffled list) must not be predicted.
	src := `
		.data
		.base 0x10000
	ring:	.addr ring+32
		.space 24
		.addr ring+96
		.space 24
		.addr ring+64
		.space 24
		.addr ring
		.space 24
		.text
	main:	li r9, 0
		li r2, 0x10000
	loop:	ld8_p r2, r2(0)
		add r9, r9, 1
		blt r9, 20000, loop
		halt r0
	`
	cfg := Config{Select: SelCompiler, Mechanisms: []mech.Spec{predSpec(64)}}
	m := sim(t, cfg, src)
	// The ring hops 0 -> 32 -> 96 -> 0 ... with unequal strides, so the
	// stride machine stays in learning most of the time.
	if rate := m.Predict.ForwardRate(); rate > 0.5 {
		t.Errorf("unpredictable chase forwarded %.2f of loads", rate)
	}
}

func TestEarlyPathZeroCycleLoads(t *testing.T) {
	cfg := Config{Select: SelCompiler, Mechanisms: []mech.Spec{rcSpec(1)}}
	// Stable base register: every ld_e after the first should forward
	// with zero effective latency.
	m := sim(t, cfg, loopOf(10000, `
		ld8_e r1, r20(0)
		add r2, r1, 1
	`))
	if m.Early.Eligible == 0 {
		t.Fatalf("no loads took the early path")
	}
	if m.ZeroCycleLoads == 0 {
		t.Errorf("no zero-cycle loads: %+v", m.Early)
	}
	if rate := m.Early.ForwardRate(); rate < 0.9 {
		t.Errorf("stable-base ld_e forward rate = %.2f (%+v)", rate, m.Early)
	}
}

func TestEarlyPathBindingSwitchMisses(t *testing.T) {
	cfg := Config{Select: SelCompiler, Mechanisms: []mech.Spec{rcSpec(1)}}
	// Two ld_e loads alternating base registers: each rebinds R_addr,
	// so each misses (the "binding just switched" case).
	m := sim(t, cfg, loopOf(10000, `
		ld8_e r1, r20(0)
		ld8_e r2, r21(0)
	`))
	if m.Early.RegMiss < int64(m.Early.Eligible)/2 {
		t.Errorf("alternating bindings should mostly miss: %+v", m.Early)
	}
	// With two cached registers both bases stay resident.
	cfg.Mechanisms = []mech.Spec{rcSpec(2)}
	m2 := sim(t, cfg, loopOf(10000, `
		ld8_e r1, r20(0)
		ld8_e r2, r21(0)
	`))
	if m2.Early.ForwardRate() < 0.8 {
		t.Errorf("two-entry cache should hold both bases: %+v", m2.Early)
	}
}

func TestMemInterlockSuppressesForwarding(t *testing.T) {
	cfg := Config{Select: SelCompiler, Mechanisms: []mech.Spec{rcSpec(1)}}
	// A store to the loaded address right before the load: the
	// speculative data would be stale, so the formula must veto it.
	m := sim(t, cfg, loopOf(10000, `
		st8 r9, r20(0)
		ld8_e r1, r20(0)
		add r2, r1, 1
	`))
	if m.Early.MemInterlock == 0 {
		t.Errorf("no memory interlocks detected: %+v", m.Early)
	}
}

func TestBranchMispredictCost(t *testing.T) {
	// A data-dependent unpredictable branch pattern (period 2 is fine
	// for 2-bit counters, so use period 3which confuses them) should
	// cost cycles vs a never-taken branch.
	predictable := sim(t, Config{}, loopOf(30000, `
		and r1, r9, 7
		beq r1, 15, loop
	`))
	confusing := sim(t, Config{}, loopOf(30000, `
		and r1, r9, 1
		beq r1, 0, skip
	skip:	add r2, r2, 1
	`))
	_ = confusing
	if predictable.Mispredicts > predictable.Branches/10 {
		t.Errorf("never-taken branch mispredicting: %d/%d",
			predictable.Mispredicts, predictable.Branches)
	}
}

func TestICacheAndDCacheStats(t *testing.T) {
	m := sim(t, Config{}, loopOf(1000, `ld8_n r1, r20(0)`))
	if m.ICacheStats.Accesses == 0 {
		t.Errorf("no icache accesses recorded")
	}
	if m.DCacheStats.Accesses == 0 {
		t.Errorf("no dcache accesses recorded")
	}
	if m.Loads != 1000 {
		t.Errorf("loads = %d, want 1000", m.Loads)
	}
}

func TestDCacheMissPenalty(t *testing.T) {
	// Striding through 1 MiB touches new blocks constantly: many misses;
	// re-walking the same 64 bytes should hit.
	missy := sim(t, Config{}, loopOf(20000, `
		ld8_n r1, r20(0)
		add r2, r1, 1
		add r20, r20, 64
	`))
	hitty := sim(t, Config{}, loopOf(20000, `
		ld8_n r1, r20(0)
		add r2, r1, 1
	`))
	if missy.Cycles < hitty.Cycles+10*int64(missy.DCacheStats.Misses)/2 {
		t.Errorf("miss penalty looks unmodeled: missy=%d hitty=%d misses=%d",
			missy.Cycles, hitty.Cycles, missy.DCacheStats.Misses)
	}
	if missy.DCacheStats.Misses < 15000 {
		t.Errorf("striding by block size should miss ~every load: %+v", missy.DCacheStats)
	}
}

func TestIssueWidthBounds(t *testing.T) {
	m := sim(t, Config{}, loopOf(10000, `
		add r1, r2, 1
		add r3, r4, 1
	`))
	// 4 instructions per iteration + loop overhead; cycles can never be
	// less than insts/6.
	if m.Cycles < m.Insts/6 {
		t.Errorf("IPC exceeds issue width: %d cycles for %d insts", m.Cycles, m.Insts)
	}
	if m.IPC() <= 0 {
		t.Errorf("IPC = %v", m.IPC())
	}
}

func TestALULimit(t *testing.T) {
	// 8 independent adds per iteration with 4 ALUs need >= 2 cycles.
	m := sim(t, Config{}, loopOf(5000, `
		add r1, r1, 1
		add r2, r2, 1
		add r3, r3, 1
		add r4, r4, 1
		add r5, r5, 1
		add r6, r6, 1
		add r7, r7, 1
		add r8, r8, 1
	`))
	perIter := float64(m.Cycles) / 5000
	if perIter < 2 {
		t.Errorf("8 adds/iter on 4 ALUs took %.2f cycles/iter", perIter)
	}
}

func TestSelectionPolicyNames(t *testing.T) {
	names := map[Selection]string{
		SelNone: "none", SelCompiler: "compiler", SelAllPredict: "hw-predict",
		SelAllEarly: "hw-early", SelHWDual: "hw-dual",
	}
	for sel, want := range names {
		if sel.String() != want {
			t.Errorf("%d.String() = %q, want %q", sel, sel.String(), want)
		}
	}
}

func TestHWDualSteering(t *testing.T) {
	cfg := Config{Select: SelHWDual, Mechanisms: []mech.Spec{predSpec(256), rcSpec(16)}}
	// A chase load (base interlocked) must be steered to the predictor.
	m := sim(t, cfg, `
		.data
		.base 0x10000
	cell:	.addr cell
		.text
	main:	li r9, 0
		li r2, 0x10000
	loop:	ld8_n r2, r2(0)
		add r9, r9, 1
		blt r9, 10000, loop
		halt r0
	`)
	if m.Predict.Eligible == 0 {
		t.Errorf("interlocked load not steered to the prediction path: P=%+v E=%+v",
			m.Predict, m.Early)
	}
}

func TestMetricsDerived(t *testing.T) {
	m := &Metrics{Cycles: 100, Insts: 250, Loads: 10, LoadLatencySum: 15,
		ZeroCycleLoads: 3, OneCycleLoads: 2}
	if m.IPC() != 2.5 {
		t.Errorf("IPC = %v", m.IPC())
	}
	if m.AvgLoadLatency() != 1.5 {
		t.Errorf("avg load latency = %v", m.AvgLoadLatency())
	}
	base := &Metrics{Cycles: 150}
	if m.SpeedupOver(base) != 1.5 {
		t.Errorf("speedup = %v", m.SpeedupOver(base))
	}
	var ps PathStats
	if ps.ForwardRate() != 0 {
		t.Errorf("empty path stats forward rate != 0")
	}
}

func TestTraceReplayDeterministic(t *testing.T) {
	p := asmtest.MustAssemble(t, loopOf(5000, `
		ld8_n r1, r20(0)
		add r20, r20, 8
	`))
	_, trace, err := emu.RunTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := mustSim(t, Config{}, p).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mustSim(t, Config{}, p).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles {
		t.Errorf("replay not deterministic: %d vs %d", m1.Cycles, m2.Cycles)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	c := Config{}
	c.fill()
	if c.FetchWidth != 6 || c.IssueWidth != 6 || c.IntALUs != 4 ||
		c.MemPorts != 2 || c.FPALUs != 2 || c.BranchUnits != 1 {
		t.Errorf("defaults do not match Section 5.1: %+v", c)
	}
	if c.LatMul != 3 || c.LatDiv != 8 || c.LatFP != 2 {
		t.Errorf("latency defaults: %+v", c)
	}
	pc := PaperCompilerDirected()
	if want := []mech.Spec{predSpec(256), rcSpec(1)}; !reflect.DeepEqual(pc.Mechanisms, want) || pc.Select != SelCompiler {
		t.Errorf("paper config wrong: %+v", pc)
	}
}

func TestListingHasNoSurprises(t *testing.T) {
	// Guard against accidental flavour-dependent emulation: the same
	// program with different flavours must produce identical traces.
	base := loopOf(200, `ld8_n r1, r20(0)`)
	alt := strings.ReplaceAll(base, "ld8_n", "ld8_p")
	p1 := asmtest.MustAssemble(t, base)
	p2 := asmtest.MustAssemble(t, alt)
	r1, tr1, _ := emu.RunTrace(p1, 0)
	r2, tr2, _ := emu.RunTrace(p2, 0)
	if r1.Output() != r2.Output() || tr1.Len() != tr2.Len() {
		t.Errorf("flavour changed architectural behaviour")
	}
}

func TestStageTraceRecordsAndRenders(t *testing.T) {
	p := asmtest.MustAssemble(t, loopOf(100, `
		ld8_n r1, r20(0)
		add r2, r1, 1
	`))
	_, trace, err := emu.RunTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, Config{}, p)
	s.EnableStageTrace(12)
	if _, err := s.Run(trace); err != nil {
		t.Fatal(err)
	}
	recs := s.StageTrace()
	if len(recs) != 12 {
		t.Fatalf("recorded %d records, want 12", len(recs))
	}
	for i, r := range recs {
		if r.Fetch < 1 || r.Issue < r.Fetch+3 || r.Done < r.Issue {
			t.Errorf("record %d has inconsistent stages: %+v", i, r)
		}
		if i > 0 && r.Fetch < recs[i-1].Fetch {
			t.Errorf("fetch cycles went backwards at %d", i)
		}
	}
	out := RenderStageTrace(p, recs)
	if !strings.Contains(out, "|F") {
		t.Errorf("rendered trace missing fetch markers:\n%s", out)
	}
	if RenderStageTrace(p, nil) != "" {
		t.Errorf("empty trace should render empty")
	}
}

func TestStageTraceMarksForwardedLoads(t *testing.T) {
	cfg := Config{Select: SelCompiler, Mechanisms: []mech.Spec{rcSpec(1)}}
	p := asmtest.MustAssemble(t, loopOf(50, `
		ld8_e r1, r20(0)
		add r2, r1, 1
	`))
	_, trace, err := emu.RunTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, cfg, p)
	s.EnableStageTrace(trace.Len())
	if _, err := s.Run(trace); err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, r := range s.StageTrace() {
		if r.Forward == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Errorf("no zero-cycle loads marked in the stage trace")
	}
}
