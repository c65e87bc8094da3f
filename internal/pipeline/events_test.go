package pipeline

import (
	"reflect"
	"testing"

	"elag/internal/asm/asmtest"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
)

// obsProg exercises both speculation paths, stores (mem-interlock), a
// pointer chase (mispredictions) and branches — enough to light up every
// event kind.
const obsProgBody = `
	ld8_p r1, r20(0)
	add r20, r20, 8
	ld8_e r2, r21(0)
	add r3, r1, r2
	st8 r3, r21(8)
	ld8_n r4, r21(8)
`

func obsConfig() Config {
	return SelCompiler.Config(64, 1)
}

func obsTrace(t *testing.T) (*emu.Trace, *Sim) {
	t.Helper()
	return obsTraceUnder(t, obsConfig())
}

func obsTraceUnder(t *testing.T, cfg Config) (*emu.Trace, *Sim) {
	t.Helper()
	p := asmtest.MustAssemble(t, loopOf(3000, obsProgBody))
	_, trace, err := emu.RunTrace(p, 10_000_000)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return trace, mustSim(t, cfg, p)
}

// countingSink tallies the event stream by kind, failure term, mechanism
// operation and component outcome.
type countingSink struct {
	byKind   map[EventKind]int64
	failBits map[byte]map[FailMask]int64 // path -> term bit -> count
	mechOps  map[byte]int64              // EvMech MechOp -> count
	mechHits int64                       // 'L' events with Hit

	// D-cache EvCacheAccess events: demand, speculative, and demand tag
	// misses.
	dAccess, dSpecAccess, dMisses int64
	mispredicts                   int64 // EvBranchResolve with Mispredict
	tableAllocs, tableCorrect     int64 // EvTableTransition with Alloc / Correct
}

func (c *countingSink) Event(ev *Event) {
	if c.byKind == nil {
		c.byKind = map[EventKind]int64{}
		c.failBits = map[byte]map[FailMask]int64{}
		c.mechOps = map[byte]int64{}
	}
	c.byKind[ev.Kind]++
	switch ev.Kind {
	case EvCacheAccess:
		switch {
		case ev.Spec:
			c.dSpecAccess++
		case ev.Hit:
			c.dAccess++
		default:
			c.dAccess++
			c.dMisses++
		}
	case EvBranchResolve:
		if ev.Mispredict {
			c.mispredicts++
		}
	case EvTableTransition:
		if ev.Alloc {
			c.tableAllocs++
		}
		if ev.Correct {
			c.tableCorrect++
		}
	case EvMech:
		c.mechOps[ev.MechOp]++
		if ev.MechOp == 'L' && ev.Hit {
			c.mechHits++
		}
	case EvSpecFail:
		m := c.failBits[ev.Path]
		if m == nil {
			m = map[FailMask]int64{}
			c.failBits[ev.Path] = m
		}
		for _, fn := range failNames {
			if ev.Fail&fn.bit != 0 {
				m[fn.bit]++
			}
		}
	}
}

// TestObservationDoesNotPerturbTiming: a run with a sink attached and
// per-PC attribution enabled must produce exactly the metrics of a plain
// run — observation is read-only.
func TestObservationDoesNotPerturbTiming(t *testing.T) {
	trace, plain := obsTrace(t)
	mPlain, err := plain.Run(trace)
	if err != nil {
		t.Fatal(err)
	}

	_, observed := obsTrace(t)
	observed.EnablePerPC()
	observed.AttachSink(&countingSink{})
	mObs, err := observed.Run(trace)
	if err != nil {
		t.Fatal(err)
	}

	a, b := *mPlain, *mObs
	b.PerPC = nil // the attribution table is the one permitted difference
	if !reflect.DeepEqual(a, b) {
		t.Errorf("observation changed the timing result:\nplain:    %+v\nobserved: %+v", a, b)
	}
}

// eventConfig is one configuration the event tests run under.
type eventConfig struct {
	name   string
	cfg    Config
	assist bool
}

// eventConfigs lists every machine of Machines at its default sizes, then
// every assist of AssistSpecs.
func eventConfigs() []eventConfig {
	var out []eventConfig
	for _, m := range Machines {
		out = append(out, eventConfig{name: m.Name, cfg: m.Select.Config(m.Table, m.Regs)})
	}
	for _, sp := range AssistSpecs {
		out = append(out, eventConfig{name: sp.String(),
			cfg: Config{Mechanisms: []mech.Spec{sp}}, assist: true})
	}
	return out
}

// TestEventCounterConsistency: the event stream must reproduce the global
// counters under every machine and assist (see countEvents). On a paper
// machine no EvMech is emitted and the 'P'/'E' failure bits equal the
// PathStats counters. Under each assist of AssistSpecs, the 'A'-path
// failure bits equal Predict's counters and the EvMech events equal the
// mechanism's Stats: 'L' events its lookups (those with Hit its hits), 'T'
// plus 'A' events its trains, 'A' its allocations.
func TestEventCounterConsistency(t *testing.T) {
	for _, ec := range eventConfigs() {
		t.Run(ec.name, func(t *testing.T) {
			sink, m := countEvents(t, ec.cfg)
			if !ec.assist {
				if n := sink.byKind[EvMech]; n != 0 || m.MechStats != nil {
					t.Errorf("paper configuration: %d mech events, MechStats %+v", n, m.MechStats)
				}
				checkFailBits(t, sink, 'P', &m.Predict)
				checkFailBits(t, sink, 'E', &m.Early)
				return
			}
			sp := ec.cfg.Mechanisms[0]
			st := m.MechStats
			if st == nil || m.MechKind != sp.Kind {
				t.Fatalf("MechKind %q, MechStats %v; want kind %s", m.MechKind, st, sp.Kind)
			}
			ops := sink.mechOps
			for _, c := range []struct {
				what      string
				got, want int64
			}{
				{"'L' events vs lookups", ops['L'], st.Lookups},
				{"'L' hit events vs hits", sink.mechHits, st.Hits},
				{"'T'+'A' events vs trains", ops['T'] + ops['A'], st.Trains},
				{"'A' events vs allocs", ops['A'], st.Allocs},
			} {
				if c.got != c.want {
					t.Errorf("%s: %d != %d", c.what, c.got, c.want)
				}
			}
			if st.Lookups == 0 || st.Hits == 0 || st.Allocs == 0 {
				t.Errorf("assist saw no traffic: %+v", *st)
			}
			if len(sink.failBits['P']) != 0 {
				t.Errorf("assist run has 'P'-path failures: %v", sink.failBits['P'])
			}
			checkFailBits(t, sink, 'A', &m.Predict)
			checkFailBits(t, sink, 'E', &m.Early)
		})
	}
}

// countEvents runs the observation program under cfg with a countingSink
// and checks the path-independent event counts against the metrics:
// retires equal instructions; spec launches, forwards and fails equal the
// PathStats sums; demand and speculative D-cache access events equal the
// cache's accesses and speculative accesses, and demand ones that missed
// its misses; branch events equal the BTB's branches and those that
// mispredicted its mispredicts; table transitions that allocated equal
// the table's allocations and those that were correct its correct
// predictions; R_addr binds equal the register cache's binds.
func countEvents(t *testing.T, cfg Config) (*countingSink, *Metrics) {
	t.Helper()
	trace, s := obsTraceUnder(t, cfg)
	sink := &countingSink{}
	s.AttachSink(sink)
	m, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"retire events vs instructions", sink.byKind[EvRetire], m.Insts},
		{"spec-launch events vs speculated", sink.byKind[EvSpecLaunch], m.Predict.Speculated + m.Early.Speculated},
		{"spec-forward events vs forwarded", sink.byKind[EvSpecForward], m.Predict.Forwarded + m.Early.Forwarded},
		{"spec-fail events vs eligible-forwarded", sink.byKind[EvSpecFail],
			m.Predict.Eligible + m.Early.Eligible - m.Predict.Forwarded - m.Early.Forwarded},
		{"demand D-cache access events vs accesses", sink.dAccess, m.DCacheStats.Accesses},
		{"speculative D-cache access events vs spec accesses", sink.dSpecAccess, m.DCacheStats.SpecAccesses},
		{"demand D-cache access misses vs misses", sink.dMisses, m.DCacheStats.Misses},
		{"branch events vs branches", sink.byKind[EvBranchResolve], m.BTBStats.Branches},
		{"mispredicted branch events vs mispredicts", sink.mispredicts, m.BTBStats.Mispredicts},
		{"alloc transitions vs allocations", sink.tableAllocs, m.TableStats.Allocations},
		{"correct transitions vs correct predictions", sink.tableCorrect, m.TableStats.Correct},
		{"reg-bind events vs binds", sink.byKind[EvRegBind], m.RegCacheStat.Binds},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d != %d", c.what, c.got, c.want)
		}
	}
	if m.DCacheStats.Accesses == 0 || m.BTBStats.Branches == 0 {
		t.Errorf("no D-cache or branch traffic: %+v, %+v", m.DCacheStats, m.BTBStats)
	}
	return sink, m
}

// specCycleSink keeps each load's EvSpecLaunch cycle by Seq and the
// speculative D-cache events, which are emitted before their launch.
type specCycleSink struct {
	launch map[int64]int64
	access []Event
}

func (c *specCycleSink) Event(ev *Event) {
	switch {
	case ev.Kind == EvSpecLaunch:
		c.launch[ev.Seq] = ev.Cycle
	case (ev.Kind == EvCacheAccess || ev.Kind == EvCacheMiss) && ev.Spec:
		c.access = append(c.access, *ev)
	}
}

// TestSpecAccessAtLaunchCycle: a speculative D-cache access happens on the
// cycle its load launches the speculation, which for a load held in
// decode is later than ID2. Under every machine and assist, each
// speculative EvCacheAccess and EvCacheMiss carries the Cycle of the
// same-Seq EvSpecLaunch.
func TestSpecAccessAtLaunchCycle(t *testing.T) {
	for _, ec := range eventConfigs() {
		t.Run(ec.name, func(t *testing.T) {
			trace, s := obsTraceUnder(t, ec.cfg)
			sink := &specCycleSink{launch: map[int64]int64{}}
			s.AttachSink(sink)
			if _, err := s.Run(trace); err != nil {
				t.Fatal(err)
			}
			if ec.cfg.Select != SelNone || ec.assist {
				if len(sink.access) == 0 {
					t.Fatal("no speculative D-cache access")
				}
			}
			bad := 0
			for _, ev := range sink.access {
				if l, ok := sink.launch[ev.Seq]; !ok || l != ev.Cycle {
					if bad++; bad <= 5 {
						t.Errorf("seq %d: speculative %v at cycle %d, launch at %d (found %v)",
							ev.Seq, ev.Kind, ev.Cycle, l, ok)
					}
				}
			}
			if bad > 5 {
				t.Errorf("%d of %d speculative D-cache events off their launch cycle", bad, len(sink.access))
			}
		})
	}
}

// pcSink keeps every EvRetire by Seq, the structural (issue-width and FU)
// stall bubbles by Seq, and every cache and bind event.
type pcSink struct {
	retire     map[int64]Event
	structural map[int64]int64
	events     []Event
}

func (c *pcSink) Event(ev *Event) {
	switch ev.Kind {
	case EvRetire:
		c.retire[ev.Seq] = *ev
	case EvStall:
		if ev.Cause != StallOperand {
			c.structural[ev.Seq] += ev.Cycles
		}
	case EvCacheAccess, EvCacheMiss, EvRegBind:
		c.events = append(c.events, *ev)
	}
}

// bindStallBody packs its ld8_e seventh into the issue group behind the
// divide's consumer, with three ALU operations ahead of it, so the load
// takes an issue-width stall after its early path is timed.
const bindStallBody = `
	div r1, r9, 3
	add r2, r1, 1
	add r3, r9, 1
	add r4, r9, 2
	ld8_n r5, r20(0)
	ld8_n r6, r20(8)
	ld8_n r7, r20(16)
	ld8_e r8, r21(0)
`

// TestCacheAndBindEventsCarryPC: under every machine and assist, each
// EvCacheAccess, EvCacheMiss and EvRegBind carries the PC of the same-Seq
// EvRetire, and each EvRegBind is stamped where the early path reads
// R_addr (DESIGN §5b rules 3 and 10): one cycle before that retire's Issue,
// less the structural stall a full issue group adds after the early path
// is timed.
func TestCacheAndBindEventsCarryPC(t *testing.T) {
	var traces []*emu.Trace
	var progs []*isa.Program
	for _, body := range []string{obsProgBody, bindStallBody} {
		p := asmtest.MustAssemble(t, loopOf(3000, body))
		_, trace, err := emu.RunTrace(p, 10_000_000)
		if err != nil {
			t.Fatalf("trace: %v", err)
		}
		traces, progs = append(traces, trace), append(progs, p)
	}
	for _, ec := range eventConfigs() {
		t.Run(ec.name, func(t *testing.T) {
			bad, binds, stalledBinds := 0, 0, 0
			for i, trace := range traces {
				sink := &pcSink{retire: map[int64]Event{}, structural: map[int64]int64{}}
				s := mustSim(t, ec.cfg, progs[i])
				s.AttachSink(sink)
				if _, err := s.Run(trace); err != nil {
					t.Fatal(err)
				}
				if len(sink.events) == 0 {
					t.Fatal("no cache or bind events")
				}
				for _, ev := range sink.events {
					r, ok := sink.retire[ev.Seq]
					wantCycle := ev.Cycle
					if ev.Kind == EvRegBind {
						binds++
						if sink.structural[ev.Seq] > 0 {
							stalledBinds++
						}
						wantCycle = r.Issue - 1 - sink.structural[ev.Seq]
					}
					if !ok || ev.PC != r.PC || ev.Cycle != wantCycle {
						if bad++; bad <= 5 {
							t.Errorf("seq %d: %v at pc %d cycle %d; retire pc %d issue %d (found %v)",
								ev.Seq, ev.Kind, ev.PC, ev.Cycle, r.PC, r.Issue, ok)
						}
					}
				}
			}
			if bad > 5 {
				t.Errorf("%d cache and bind events off their instruction", bad)
			}
			if sel := ec.cfg.Select; (sel == SelCompiler || sel == SelAllEarly || sel == SelHWDual) && stalledBinds == 0 {
				t.Errorf("%d R_addr bind events, none after a structural stall", binds)
			}
		})
	}
}

// checkFailBits compares the failure-term bits of path's EvSpecFail
// events with the counters of ps.
func checkFailBits(t *testing.T, sink *countingSink, path byte, ps *PathStats) {
	t.Helper()
	bits := sink.failBits[path]
	for _, tc := range []struct {
		bit  FailMask
		want int64
	}{
		{FailNoPrediction, ps.NoPrediction},
		{FailRegMiss, ps.RegMiss},
		{FailRegInterlock, ps.RegInterlock},
		{FailMemInterlock, ps.MemInterlock},
		{FailNoPort, ps.NoPort},
		{FailCacheMiss, ps.CacheMiss},
		{FailAddrMispredict, ps.AddrMispredict},
	} {
		if bits[tc.bit] != tc.want {
			t.Errorf("path %c %s: event bits %d != counter %d", path, tc.bit, bits[tc.bit], tc.want)
		}
	}
}

// sumPathStats adds the rows' path counters field by field via reflection,
// so a counter added to PathStats later cannot silently escape the algebra.
func sumPathStats(rows []LoadPCStats, early bool) PathStats {
	var sum PathStats
	sv := reflect.ValueOf(&sum).Elem()
	for i := range rows {
		ps := rows[i].Predict
		if early {
			ps = rows[i].Early
		}
		pv := reflect.ValueOf(ps)
		for f := 0; f < pv.NumField(); f++ {
			sv.Field(f).SetInt(sv.Field(f).Int() + pv.Field(f).Int())
		}
	}
	return sum
}

// TestPerPCCounterAlgebra: the per-PC attribution table must sum exactly
// to the global counters, for every PathStats field plus loads, latency
// sum and the zero/one-cycle forward counts.
func TestPerPCCounterAlgebra(t *testing.T) {
	// Every machine but base, with a 64-entry table and one register.
	for _, m := range Machines[1:] {
		sel, cfg := m.Select, m.Select.Config(64, 1)
		p := asmtest.MustAssemble(t, loopOf(3000, obsProgBody))
		_, trace, err := emu.RunTrace(p, 10_000_000)
		if err != nil {
			t.Fatalf("trace: %v", err)
		}
		s := mustSim(t, cfg, p)
		s.EnablePerPC()
		m, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.PerPC) == 0 {
			t.Fatalf("%v: no attribution rows", sel)
		}
		if got := sumPathStats(m.PerPC, false); got != m.Predict {
			t.Errorf("%v: per-PC predict sum %+v != global %+v", sel, got, m.Predict)
		}
		if got := sumPathStats(m.PerPC, true); got != m.Early {
			t.Errorf("%v: per-PC early sum %+v != global %+v", sel, got, m.Early)
		}
		var count, latSum, zero, one int64
		for i := range m.PerPC {
			r := &m.PerPC[i]
			count += r.Count
			latSum += r.LatencySum
			zero += r.ZeroCycle
			one += r.OneCycle
			var hist int64
			for _, h := range r.Hist {
				hist += h
			}
			if hist != r.Count {
				t.Errorf("%v: pc %d histogram sums to %d, count %d", sel, r.PC, hist, r.Count)
			}
		}
		if count != m.Loads {
			t.Errorf("%v: per-PC count sum %d != loads %d", sel, count, m.Loads)
		}
		if latSum != m.LoadLatencySum {
			t.Errorf("%v: per-PC latency sum %d != global %d", sel, latSum, m.LoadLatencySum)
		}
		if zero != m.ZeroCycleLoads || one != m.OneCycleLoads {
			t.Errorf("%v: per-PC zero/one %d/%d != global %d/%d",
				sel, zero, one, m.ZeroCycleLoads, m.OneCycleLoads)
		}
	}
}

// TestWorstLoadsOrdering: WorstLoads must sort by total latency, ties by
// PC, and cap at n.
func TestWorstLoadsOrdering(t *testing.T) {
	m := &Metrics{PerPC: []LoadPCStats{
		{PC: 4, LatencySum: 10},
		{PC: 2, LatencySum: 30},
		{PC: 9, LatencySum: 30},
		{PC: 1, LatencySum: 5},
	}}
	rows := m.WorstLoads(3)
	if len(rows) != 3 || rows[0].PC != 2 || rows[1].PC != 9 || rows[2].PC != 4 {
		t.Errorf("unexpected order: %+v", rows)
	}
}
