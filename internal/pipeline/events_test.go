package pipeline

import (
	"reflect"
	"testing"

	"elag/internal/asm/asmtest"
	"elag/internal/emu"
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
	return Config{Select: SelCompiler, Mechanisms: []mech.Spec{predSpec(64), rcSpec(1)}}
}

func obsTrace(t *testing.T) (*emu.Trace, *Sim) {
	t.Helper()
	p := asmtest.MustAssemble(t, loopOf(3000, obsProgBody))
	_, trace, err := emu.RunTrace(p, 10_000_000)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return trace, mustSim(t, obsConfig(), p)
}

// countingSink tallies the event stream by kind and failure term.
type countingSink struct {
	byKind   map[EventKind]int64
	failBits map[byte]map[FailMask]int64 // path -> term bit -> count
}

func (c *countingSink) Event(ev *Event) {
	if c.byKind == nil {
		c.byKind = map[EventKind]int64{}
		c.failBits = map[byte]map[FailMask]int64{}
	}
	c.byKind[ev.Kind]++
	if ev.Kind == EvSpecFail {
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

// TestEventCounterConsistency: the event stream must reproduce the global
// counters — retires equal instructions, spec launches/forwards/fails and
// per-term failure bits equal the PathStats sums.
func TestEventCounterConsistency(t *testing.T) {
	trace, s := obsTrace(t)
	var sink countingSink
	s.AttachSink(&sink)
	m, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := sink.byKind[EvRetire], m.Insts; got != want {
		t.Errorf("retire events %d != instructions %d", got, want)
	}
	if got, want := sink.byKind[EvSpecLaunch], m.Predict.Speculated+m.Early.Speculated; got != want {
		t.Errorf("spec-launch events %d != speculated %d", got, want)
	}
	if got, want := sink.byKind[EvSpecForward], m.Predict.Forwarded+m.Early.Forwarded; got != want {
		t.Errorf("spec-forward events %d != forwarded %d", got, want)
	}
	fails := m.Predict.Eligible + m.Early.Eligible - m.Predict.Forwarded - m.Early.Forwarded
	if got := sink.byKind[EvSpecFail]; got != fails {
		t.Errorf("spec-fail events %d != eligible-forwarded %d", got, fails)
	}
	if sink.byKind[EvBranchResolve] == 0 || sink.byKind[EvTableTransition] == 0 ||
		sink.byKind[EvRegBind] == 0 || sink.byKind[EvCacheAccess] == 0 {
		t.Errorf("expected branch/table/reg-bind/cache events, got %v", sink.byKind)
	}

	for _, c := range []struct {
		path byte
		ps   *PathStats
	}{{'P', &m.Predict}, {'E', &m.Early}} {
		bits := sink.failBits[c.path]
		for _, tc := range []struct {
			bit  FailMask
			want int64
		}{
			{FailNoPrediction, c.ps.NoPrediction},
			{FailRegMiss, c.ps.RegMiss},
			{FailRegInterlock, c.ps.RegInterlock},
			{FailMemInterlock, c.ps.MemInterlock},
			{FailNoPort, c.ps.NoPort},
			{FailCacheMiss, c.ps.CacheMiss},
			{FailAddrMispredict, c.ps.AddrMispredict},
		} {
			if bits[tc.bit] != tc.want {
				t.Errorf("path %c %s: event bits %d != counter %d",
					c.path, tc.bit, bits[tc.bit], tc.want)
			}
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
	for _, cfg := range []Config{
		obsConfig(),
		{Select: SelAllPredict, Mechanisms: []mech.Spec{predSpec(64)}},
		{Select: SelAllEarly, Mechanisms: []mech.Spec{rcSpec(1)}},
		{Select: SelHWDual, Mechanisms: []mech.Spec{predSpec(64), rcSpec(1)}},
	} {
		sel := cfg.Select
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
