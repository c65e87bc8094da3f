package pipeline

import (
	"strings"

	"elag/internal/addrpred"
	"elag/internal/earlycalc"
	"elag/internal/isa"
)

// This file is the cycle-level event layer of the timing model. A Sim with
// no sink attached pays a single nil check per emission site, changes no
// timing state, and allocates nothing: tracing off is the default and is
// free. AttachSink threads one EventSink through the pipeline proper and
// the component models (prediction table, addressing-register cache, the
// two caches and the BTB), after which every architectural-visible
// micro-event of a run is observable in program order.

// FailMask is the bitmask of Section 3.2 forwarding-failure terms recorded
// for a speculation that did not forward. A single failed speculation may
// set several bits (e.g. a mispredicted address that also missed the
// cache). Each bit maps one-to-one onto a PathStats failure counter.
type FailMask uint16

// Failure terms.
const (
	// FailNoPrediction: the ID1 table probe produced no confident
	// prediction (ld_p path only).
	FailNoPrediction FailMask = 1 << iota
	// FailRegMiss: the base register was not cached in R_addr (ld_e).
	FailRegMiss
	// FailRegInterlock: the base register's value was still in flight.
	FailRegInterlock
	// FailMemInterlock: a pending store could overlap the access.
	FailMemInterlock
	// FailNoPort: no data-cache port was free on the speculation cycle.
	FailNoPort
	// FailCacheMiss: the speculative access missed (or its data arrived
	// after the load's EXE stage).
	FailCacheMiss
	// FailAddrMispredict: the predicted address differed from the
	// computed one (ld_p only).
	FailAddrMispredict
)

var failNames = []struct {
	bit  FailMask
	name string
}{
	{FailNoPrediction, "no-prediction"},
	{FailRegMiss, "reg-miss"},
	{FailRegInterlock, "reg-interlock"},
	{FailMemInterlock, "mem-interlock"},
	{FailNoPort, "no-port"},
	{FailCacheMiss, "cache-miss"},
	{FailAddrMispredict, "addr-mispredict"},
}

// String renders the set bits as a stable "+"-joined list.
func (f FailMask) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range failNames {
		if f&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, "+")
}

// EventKind discriminates cycle-level events.
type EventKind uint8

// Event kinds.
const (
	// EvRetire reports the stage occupancy of one retired instruction:
	// Fetch/Issue/Done cycles (decode spans Fetch+1..Issue-1).
	EvRetire EventKind = iota
	// EvSpecLaunch: a speculative data-cache access was issued from the
	// decode stages (Cycle = access cycle, Addr = speculative address).
	EvSpecLaunch
	// EvSpecForward: speculative data was forwarded to the load (Lat is
	// the effective latency, 0 or 1).
	EvSpecForward
	// EvSpecFail: a load eligible for early address generation did not
	// forward; Fail holds the failure-term bitmask.
	EvSpecFail
	// EvRegBind: an addressing register was (re)bound (Reg, Value).
	EvRegBind
	// EvRegInvalidate: a cached addressing register became incoherent.
	EvRegInvalidate
	// EvRegBroadcast: a register-file write was broadcast to R_addr.
	EvRegBroadcast
	// EvTableTransition: the prediction-table entry for PC stepped its
	// state machine (From/To states, Correct, Alloc).
	EvTableTransition
	// EvCacheAccess: a data-cache access (Hit, Spec; Level is 'D').
	EvCacheAccess
	// EvCacheMiss: a cache miss began at Cycle; the fill completes at
	// the end of FillDone (Level 'I' or 'D', Spec for speculative).
	EvCacheMiss
	// EvBranchResolve: a branch resolved (Taken, Mispredict).
	EvBranchResolve
	// EvStall: the instruction spent Cycles bubbles waiting on Cause
	// before issue.
	EvStall
	// EvMech: the assist mechanism performed an operation (MechOp 'L'
	// lookup, 'T' train, 'A' alloc; Hit for a predicting lookup).
	EvMech
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{"retire", "spec-launch", "spec-forward", "spec-fail",
		"reg-bind", "reg-invalidate", "reg-broadcast", "table-transition",
		"cache-access", "cache-miss", "branch", "stall", "mech"}
	if int(k) < len(names) {
		return names[k]
	}
	return "?"
}

// StallCause labels why an instruction could not issue on a cycle.
type StallCause uint8

// Stall causes.
const (
	// StallOperand: a source register (scoreboard) interlock.
	StallOperand StallCause = iota
	// StallIssueWidth: the issue group was full.
	StallIssueWidth
	// StallFU: the required functional unit was busy.
	StallFU
)

// String names the stall cause.
func (c StallCause) String() string {
	switch c {
	case StallOperand:
		return "operand"
	case StallIssueWidth:
		return "issue-width"
	case StallFU:
		return "functional-unit"
	}
	return "?"
}

// Event is one cycle-level occurrence in the timing model. The emitting
// Sim reuses a single Event value across calls: sinks that retain events
// must copy them (the struct contains no pointers, so a value copy is a
// deep copy).
type Event struct {
	Kind  EventKind
	Seq   int64 // dynamic instruction sequence number
	PC    int   // static instruction index
	Cycle int64 // primary cycle of the event

	// EvRetire stage occupancy.
	Fetch, Issue, Done int64

	// Speculation (EvSpecLaunch/Forward/Fail).
	Path byte // 'P' (prediction table), 'E' (early calculation) or 'A' (assist)
	Addr int64
	Lat  int64
	Fail FailMask

	// Memory system (EvCacheAccess/EvCacheMiss).
	Level    byte // 'I' or 'D'
	FillDone int64
	Hit      bool
	Spec     bool

	// Prediction table (EvTableTransition).
	From, To addrpred.State
	Correct  bool
	Alloc    bool

	// Addressing-register cache (EvRegBind/Invalidate/Broadcast).
	Reg   isa.Reg
	Value int64

	// Control (EvBranchResolve).
	Taken      bool
	Mispredict bool

	// EvStall.
	Cause  StallCause
	Cycles int64

	// EvMech: the assist-mechanism operation ('L', 'T', 'A').
	MechOp byte
}

// EventSink receives the event stream of a simulation. Implementations
// must not retain the *Event (it is reused); copy the value instead.
// Sinks are called synchronously from StepInst, in deterministic order.
type EventSink interface {
	Event(ev *Event)
}

// AttachSink connects sink to the simulation and threads observers through
// the component models (prediction table, register cache, caches, BTB).
// Attach before Run; a nil sink detaches everything and restores the
// zero-overhead path.
func (s *Sim) AttachSink(sink EventSink) {
	s.sink = sink
	if sink == nil {
		if s.table != nil {
			s.table.Observer = nil
		}
		if s.regcache != nil {
			s.regcache.Observer = nil
		}
		s.dc.c.Observer = nil
		s.ic.c.Observer = nil
		s.dc.onMiss = nil
		s.ic.onMiss = nil
		s.btb.Observer = nil
		return
	}
	if s.table != nil {
		s.table.Observer = func(ev addrpred.TableEvent) {
			s.ev = Event{Kind: EvTableTransition, Seq: s.m.Insts - 1, PC: ev.PC,
				Cycle: s.obsCycle, From: ev.From, To: ev.To,
				Correct: ev.Correct, Alloc: ev.Alloc}
			sink.Event(&s.ev)
		}
	}
	if s.regcache != nil {
		s.regcache.Observer = func(ev earlycalc.Event) {
			kind := EvRegBind
			switch ev.Op {
			case earlycalc.OpInvalidate:
				kind = EvRegInvalidate
			case earlycalc.OpBroadcast:
				kind = EvRegBroadcast
			}
			s.ev = Event{Kind: kind, Seq: s.m.Insts - 1, Cycle: s.obsCycle,
				Reg: ev.Reg, Value: ev.Value}
			sink.Event(&s.ev)
		}
	}
	s.dc.c.Observer = func(addr int64, hit, spec bool) {
		s.ev = Event{Kind: EvCacheAccess, Seq: s.m.Insts - 1, Cycle: s.obsCycle,
			Level: 'D', Addr: addr, Hit: hit, Spec: spec}
		sink.Event(&s.ev)
	}
	s.dc.onMiss = func(addr, cycle, done int64, spec bool) {
		s.ev = Event{Kind: EvCacheMiss, Seq: s.m.Insts - 1, Cycle: cycle,
			Level: 'D', Addr: addr, FillDone: done, Spec: spec}
		sink.Event(&s.ev)
	}
	s.ic.onMiss = func(addr, cycle, done int64, spec bool) {
		s.ev = Event{Kind: EvCacheMiss, Seq: s.m.Insts - 1, Cycle: cycle,
			Level: 'I', Addr: addr, FillDone: done}
		sink.Event(&s.ev)
	}
	s.btb.Observer = func(pc int, taken, mispredict bool) {
		s.ev = Event{Kind: EvBranchResolve, Seq: s.m.Insts - 1, PC: pc,
			Cycle: s.obsCycle, Taken: taken, Mispredict: mispredict}
		sink.Event(&s.ev)
	}
}

// emit fills the reusable event buffer and delivers it; callers must have
// checked s.sink != nil.
func (s *Sim) emit(ev Event) {
	s.ev = ev
	s.sink.Event(&s.ev)
}
