package pipeline

import (
	"strings"

	"elag/internal/addrpred"
	"elag/internal/isa"
)

// This file is the cycle-level event layer of the timing model. The Sim is
// the only emitter: each event is built right after the component call it
// reports (cache access, BTB update, table training, R_addr bind, assist
// lookup or train), stamped with the cycle the model times that call at.
// The component models carry no hooks. A Sim with no sink attached pays a
// single nil check per emission site, changes no timing state, and
// allocates nothing: tracing off is the default and is free.

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
	// Fetch/Issue/Done cycles (decode spans Fetch+1..Issue-1; Cycle is
	// Done).
	EvRetire EventKind = iota
	// EvSpecLaunch: a speculative data-cache access was issued from the
	// decode stages (Cycle = access cycle, Addr = speculative address).
	EvSpecLaunch
	// EvSpecForward: speculative data was forwarded to the load (Lat is
	// the effective latency, 0 or 1; Cycle is the issue cycle).
	EvSpecForward
	// EvSpecFail: a load eligible for early address generation did not
	// forward; Fail holds the failure-term bitmask (Cycle is the issue
	// cycle).
	EvSpecFail
	// EvRegBind: an addressing register was (re)bound (Reg, Value) by the
	// load's decode; Cycle is its ID2 cycle.
	EvRegBind
	// EvTableTransition: the prediction-table entry for PC stepped its
	// state machine (From/To states, Correct, Alloc) in MEM.
	EvTableTransition
	// EvCacheAccess: a data-cache access at Cycle (Hit is the tag store's
	// answer, Spec marks a speculative access; Level is 'D'). A
	// speculative access's Cycle is its load's EvSpecLaunch cycle.
	EvCacheAccess
	// EvCacheMiss: a cache miss began at Cycle; the fill completes at
	// the end of FillDone (Level 'I' or 'D', Spec for speculative).
	EvCacheMiss
	// EvBranchResolve: a conditional branch resolved in EXE (Taken,
	// Mispredict).
	EvBranchResolve
	// EvStall: the instruction spent Cycles bubbles waiting on Cause
	// before issue.
	EvStall
	// EvMech: the assist mechanism performed an operation (MechOp 'L'
	// lookup at ID2, 'T' train or 'A' alloc in MEM; Hit for a predicting
	// lookup).
	EvMech
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{"retire", "spec-launch", "spec-forward", "spec-fail",
		"reg-bind", "table-transition", "cache-access", "cache-miss", "branch",
		"stall", "mech"}
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
	Cycle int64 // the cycle the model times the event at (see EventKind)

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

	// Addressing-register cache (EvRegBind).
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

// AttachSink connects sink to the simulation; a nil sink detaches it.
// Attach before Run.
func (s *Sim) AttachSink(sink EventSink) { s.sink = sink }

// emit fills the reusable event buffer and delivers it; callers must have
// checked s.sink != nil.
func (s *Sim) emit(ev Event) {
	s.ev = ev
	s.sink.Event(&s.ev)
}

// emitDAccess reports one D-cache access at cycle and, for a fresh miss,
// the fill that completes at ready; callers must have checked s.sink !=
// nil.
func (s *Sim) emitDAccess(addr, cycle, ready int64, tagHit, miss, spec bool) {
	sq := s.m.Insts - 1
	s.emit(Event{Kind: EvCacheAccess, Seq: sq, Cycle: cycle, Level: 'D',
		Addr: addr, Hit: tagHit, Spec: spec})
	if miss {
		s.emit(Event{Kind: EvCacheMiss, Seq: sq, Cycle: cycle, Level: 'D',
			Addr: addr, FillDone: ready, Spec: spec})
	}
}
