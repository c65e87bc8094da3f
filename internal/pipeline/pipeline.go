// Package pipeline implements the timing half of the paper's
// emulation-driven simulator: a six-stage (IF, ID1, ID2, EXE, MEM, WB)
// in-order superscalar model with both early load-address generation paths
// of Section 3 — the PC-indexed address prediction table probed in ID1 and
// accessed speculatively in ID2, and the early address calculation path
// through the cached addressing register(s) dispatched from ID1.
//
// The model replays the architecturally-correct dynamic trace produced by
// package emu and computes per-instruction stage times subject to in-order
// issue, functional-unit and cache-port structural hazards, scoreboard
// (register-ready) interlocks, branch prediction, and cache misses.
// Speculative early loads consume real data-cache ports and fill the cache
// (their misses act as prefetches); data is forwarded only when the paper's
// forwarding formulas hold, so speculation never requires recovery.
//
// Timing conventions: an instruction "issues" when it enters EXE. A
// register's ready time is the earliest cycle a consumer may occupy EXE
// using the value via full forwarding. A 1-cycle integer op issued at e has
// ready time e+1; a load hit has e+2 (address in EXE, data at end of MEM);
// a load forwarded by the prediction path has e+1 (one cycle saved); a load
// forwarded by the early calculation path has e (zero effective latency —
// the consumer may issue in the same cycle).
package pipeline

import (
	"elag/internal/addrpred"
	"elag/internal/bpred"
	"elag/internal/cache"
	"elag/internal/earlycalc"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
)

// frontEndSlots bounds the number of instructions in IF/ID1/ID2 latches;
// fetch of instruction i waits until instruction i-frontEndSlots has issued.
const frontEndSlots = 18

// portWindowSlots is a port window's first ring size, in cycles. The
// widest span measured on the workload suite is 16 cycles.
const portWindowSlots = 64

// portWindow counts data-cache port uses per cycle. Issue does not wait
// for a port: a load or store takes the first free port from its MEM cycle
// on, so a burst of memory operations queues MEM accesses ahead of issue,
// and the window spans from the oldest cycle still queried to the newest
// reservation. It is a ring of cycle-stamped slots. A slot stamped before
// the oldest live cycle is free, and a use a ring's length or more past
// that cycle, where two live cycles could share a slot, doubles the ring
// first, so the window never aliases.
type portWindow struct {
	slots []portSlot // power-of-two length; cycle c lives in slots[c&(len-1)]
	cap   uint8
}

type portSlot struct {
	cycle int64
	used  uint8 // 0: never stamped
}

// tryUse consumes one port at cycle if one is free. oldest is the earliest
// cycle that can still be queried; it never decreases. Every live slot
// lies in [oldest, oldest+len(slots)), so the slot of a cycle in that
// span holds that cycle or a dead one.
func (w *portWindow) tryUse(cycle, oldest int64) bool {
	if cycle-oldest >= int64(len(w.slots)) {
		w.grow(cycle - oldest)
	}
	sl := &w.slots[cycle&int64(len(w.slots)-1)]
	if sl.cycle != cycle {
		sl.cycle, sl.used = cycle, 0
	}
	if sl.used >= w.cap {
		return false
	}
	sl.used++
	return true
}

// grow doubles the ring until it is longer than span. Stamped slots move
// with their counts, never two to one slot: cycles that share a slot of
// the longer ring shared one before. Never-stamped slots all read cycle 0
// and are dropped.
func (w *portWindow) grow(span int64) {
	n := 2 * len(w.slots)
	for int64(n) <= span {
		n *= 2
	}
	old := w.slots
	w.slots = make([]portSlot, n)
	for _, sl := range old {
		if sl.used != 0 {
			w.slots[sl.cycle&int64(n-1)] = sl
		}
	}
}

// fillEnt is one outstanding (or stale) cache fill. The set of live fills
// is tiny — bounded by the handful of misses whose latency window overlaps
// the current cycle — so a linear slice beats a map on every operation and
// exposes a monotone high-water mark (maxFillDone) that proves "no fill in
// flight" with one comparison.
type fillEnt struct {
	block int64
	done  int64
}

// timedCache adds miss timing to the tag-store cache model: outstanding
// fills are tracked so that a second access to an in-flight block waits
// only for the remaining fill latency (the non-blocking prefetch effect of
// failed speculative loads).
type timedCache struct {
	c          *cache.Cache
	fills      []fillEnt
	blockShift uint
	// maxFillDone is the largest completion cycle ever inserted into
	// fills. It never decreases; when it is <= the current cycle, every
	// remaining entry is stale (absent, behaviorally).
	maxFillDone int64
}

func newTimedCache(c *cache.Cache) *timedCache {
	shift := uint(0)
	for b := c.Config().BlockBytes; b > 1; b >>= 1 {
		shift++
	}
	return &timedCache{c: c, blockShift: shift}
}

// findFill returns the index of block's fill entry, or -1. Blocks are
// unique in fills: live entries are returned before a second insert can
// happen, and stale ones are removed (or replaced in place) first.
func (t *timedCache) findFill(block int64) int {
	for i := range t.fills {
		if t.fills[i].block == block {
			return i
		}
	}
	return -1
}

func (t *timedCache) removeFill(i int) {
	last := len(t.fills) - 1
	t.fills[i] = t.fills[last]
	t.fills = t.fills[:last]
}

// addFill records a fill completing at done, replacing any existing entry
// for the block (only a stale one can exist), and sweeps stale entries if
// the slice has grown past the expected live bound.
func (t *timedCache) addFill(block, done, cycle int64) {
	if done > t.maxFillDone {
		t.maxFillDone = done
	}
	if i := t.findFill(block); i >= 0 {
		t.fills[i].done = done
		return
	}
	t.fills = append(t.fills, fillEnt{block: block, done: done})
	if len(t.fills) > 64 {
		for i := 0; i < len(t.fills); {
			if t.fills[i].done <= cycle {
				t.removeFill(i)
			} else {
				i++
			}
		}
	}
}

// access performs an access at cycle and returns the cycle at the end of
// which data is available, plus whether it was a true (same-cycle) hit.
// For the event stream it also returns the tag store's answer and whether
// a fresh miss began at cycle, whose fill completes at ready.
func (t *timedCache) access(addr, cycle int64, spec, allocate bool) (ready int64, hit, tagHit, miss bool) {
	block := addr >> t.blockShift
	switch {
	case spec:
		tagHit = t.c.SpecAccess(addr)
	case allocate:
		tagHit = t.c.Access(addr)
	default:
		tagHit = t.c.AccessNoAllocate(addr)
	}
	// The fill list is empty for the overwhelming majority of accesses;
	// skipping the scan then keeps the hit path allocation-free. When the
	// newest fill has already completed, every entry is stale — drop them
	// all in O(1).
	if len(t.fills) > 0 && t.maxFillDone <= cycle {
		t.fills = t.fills[:0]
	}
	if len(t.fills) > 0 {
		if i := t.findFill(block); i >= 0 {
			if done := t.fills[i].done; done > cycle {
				// Fill still in flight from an earlier miss.
				return done, false, tagHit, false
			}
			t.removeFill(i)
		}
	}
	if tagHit {
		return cycle, true, true, false
	}
	done := cycle + int64(t.c.MissPenalty())
	if allocate || spec {
		t.addFill(block, done, cycle)
	}
	return done, false, false, true
}

type storeRec struct {
	exe, mem int64 // EXE (address known after) and MEM (data written after)
	ea       int64
	width    int64
}

// Sim is one timing-simulation instance over a program trace. Its own
// timing state is a few kilobytes (per-register ready times, counts for
// the newest issue cycle and a small port window) beside the caches, BTB
// and load-acceleration structures it drives.
type Sim struct {
	cfg  Config
	prog *isa.Program
	meta []instMeta // per-PC decode cache (see decode.go)

	ic, dc   *timedCache
	icShift  uint // ic's block shift, read on every fetch
	btb      *bpred.BTB
	table    *addrpred.Table
	regcache *earlycalc.Cache
	// assist is the assist mechanism, nil unless the configuration named
	// a non-paper mechanism spec. It drives every load through the
	// prediction path's timing (see speculate).
	assist mech.Mechanism

	m Metrics

	regReady [isa.NumIntRegs]int64
	fpReady  [isa.NumFPRegs]int64

	// Issue slots and functional units are taken only at an instruction's
	// issue cycle, which never decreases, so only cycle lastIssue can hold
	// reservations: issued counts its issue slots and fuUsed its units by
	// instMeta.fu (fuNone's count is never checked). Both reset when
	// issue advances.
	issued   uint8
	fuUsed   [4]uint8
	issueCap uint8
	fuCap    [4]uint8
	ports    portWindow

	nextFetch  int64
	groupCycle int64
	groupCount int
	lastIssue  int64
	maxDone    int64

	icLastBlock int64
	icLastCycle int64
	icLastReady int64

	issueHist [frontEndSlots]int64
	seq       int64
	seqIdx    int // seq % frontEndSlots, kept as a ring cursor (18 is not a power of two)

	stores    [64]storeRec
	storeHead int
	// storeMaxMem is the highest mem cycle of any recorded store: when it
	// is below a query cycle, no slot can interlock and the ring scan is
	// skipped entirely.
	storeMaxMem int64

	// Observability (all nil/zero when disabled — the default).
	sink   EventSink     // cycle-level event stream, set by AttachSink
	ev     Event         // reusable event buffer passed to the sink
	attrib []LoadPCStats // per-PC load attribution, set by EnablePerPC
}

// New creates a simulation with the given configuration over prog. flavors
// optionally overrides the load flavours baked into prog (nil uses the
// program's own); the overlay is resolved into the Sim's private decode
// cache at construction, so concurrent simulations of one Program with
// different flavour assignments never race. A configuration that fails
// Config.Validate is returned as an error.
func New(cfg Config, prog *isa.Program, flavors isa.FlavorOverlay) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, err
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, err
	}
	btb, err := bpred.New(cfg.BTB)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:         cfg,
		prog:        prog,
		meta:        buildMeta(prog, &cfg, flavors),
		ic:          newTimedCache(ic),
		dc:          newTimedCache(dc),
		btb:         btb,
		icLastBlock: -1,
		icLastCycle: -1,
		issueCap:    uint8(cfg.IssueWidth),
		fuCap:       [4]uint8{fuALU: uint8(cfg.IntALUs), fuFP: uint8(cfg.FPALUs), fuBr: uint8(cfg.BranchUnits)},
		ports:       portWindow{slots: make([]portSlot, portWindowSlots), cap: uint8(cfg.MemPorts)},
	}
	s.icShift = s.ic.blockShift
	// The two paper kinds are built as their concrete structures, which
	// the ld_p and ld_e paths drive directly; any other kind is the assist
	// mechanism, driven through mech.Mechanism. Validate guarantees each
	// appears at most once.
	for _, sp := range cfg.Mechanisms {
		switch sp.Kind {
		case "addrpred":
			if s.table, err = addrpred.NewTable(mech.PredictorConfig(sp)); err != nil {
				return nil, err
			}
		case "earlycalc":
			s.regcache = earlycalc.New(mech.RegCacheConfig(sp))
		default:
			if s.assist, err = mech.New(sp); err != nil {
				return nil, err
			}
			s.m.MechKind = sp.Kind
		}
	}
	// Cycle numbering starts at 1 so that zero-valued ready times never
	// constrain anything.
	s.nextFetch = 1
	s.groupCycle = 1
	return s, nil
}

// Metrics returns the metrics accumulated so far; call after Run.
func (s *Sim) Metrics() *Metrics {
	s.m.Cycles = s.maxDone
	if s.table != nil {
		s.m.TableStats = s.table.Stats()
	}
	if s.regcache != nil {
		s.m.RegCacheStat = s.regcache.Stats()
	}
	if s.assist != nil {
		st := s.assist.Stats()
		s.m.MechStats = &st
	}
	s.m.ICacheStats = s.ic.c.Stats()
	s.m.DCacheStats = s.dc.c.Stats()
	s.m.BTBStats = s.btb.Stats()
	s.m.PerPC = s.perPC()
	return &s.m
}

// Run replays the whole trace and returns the final metrics.
func (s *Sim) Run(trace *emu.Trace) (*Metrics, error) {
	if err := s.RunChunk(trace); err != nil {
		return nil, err
	}
	return s.Metrics(), nil
}

// RunChunk replays one chunk of a trace, carrying all pipeline state
// across calls: replaying a trace chunk by chunk (in order, without gaps)
// is bit-identical to replaying it whole with Run. Call Metrics after the
// last chunk. The chunk is not retained — StreamTrace's recycled buffers
// may be passed directly.
func (s *Sim) RunChunk(chunk *emu.Trace) error {
	// Hoist the columns into locals: unlike the receiver's fields, locals
	// provably don't alias the sim, so the slice headers survive the
	// StepInst call in registers.
	n := chunk.Len()
	pcs, nextPCs := chunk.PC[:n], chunk.NextPC[:n]
	eas, baseVals := chunk.EA[:n], chunk.BaseVal[:n]
	takens := chunk.Taken[:n]
	var te emu.TraceEntry
	for i := 0; i < n; i++ {
		te.PC = int(pcs[i])
		te.SeqNum = chunk.Seq0 + int64(i)
		te.EA = eas[i]
		te.BaseVal = baseVals[i]
		te.Taken = takens[i]
		te.NextPC = int(nextPCs[i])
		if err := s.StepInst(&te); err != nil {
			return err
		}
	}
	return nil
}

// StepInst advances the timing model by one dynamic instruction. A trace
// entry whose PC lies outside the program is a typed bad-PC fault: the
// trace no longer describes this program.
func (s *Sim) StepInst(te *emu.TraceEntry) error {
	if te.PC < 0 || te.PC >= len(s.prog.Insts) {
		return &isa.Fault{Kind: isa.FaultBadPC, PC: te.PC, SeqNum: te.SeqNum,
			Detail: "trace PC outside program"}
	}
	in := &s.prog.Insts[te.PC]
	md := &s.meta[te.PC]
	s.m.Insts++

	// ---- IF ----
	f := s.nextFetch
	// Front-end back-pressure: wait for a decode slot.
	if h := s.issueHist[s.seqIdx]; s.seq >= frontEndSlots && f < h-2 {
		f = h - 2
	}
	if f < s.groupCycle {
		f = s.groupCycle
	}
	if f == s.groupCycle && s.groupCount >= s.cfg.FetchWidth {
		f++
	}
	// Instruction cache (deduplicate same-block accesses within a cycle).
	iaddr := isa.PCAddr(te.PC)
	iblock := iaddr >> s.icShift
	if iblock == s.icLastBlock && f == s.icLastCycle {
		if s.icLastReady > f {
			f = s.icLastReady
		}
	} else if iblock == s.icLastBlock && f >= s.icLastReady {
		// Refetch of the last instruction block at or past its fill
		// completion. No intervening I-cache access can have evicted it (an
		// access would have changed icLastBlock) and fetch cycles never
		// regress, so this is a guaranteed same-cycle hit: count it without
		// probing the tag store or the fill map.
		s.ic.c.CountHit()
		s.icLastCycle, s.icLastReady = f, f
	} else {
		ready, _, _, miss := s.ic.access(iaddr, f, false, true)
		if miss && s.sink != nil {
			s.emit(Event{Kind: EvCacheMiss, Seq: s.m.Insts - 1, PC: te.PC, Cycle: f,
				Level: 'I', Addr: iaddr, FillDone: ready})
		}
		s.icLastBlock, s.icLastCycle, s.icLastReady = iblock, f, ready
		if ready > f {
			f = ready
			s.icLastCycle = f
		}
	}
	if f > s.groupCycle {
		s.groupCycle = f
		s.groupCount = 0
	}
	s.groupCount++
	s.nextFetch = f

	d1 := f + 1

	// ---- operand readiness (scoreboard) ----
	ePipe := f + 3
	if ePipe < s.lastIssue {
		ePipe = s.lastIssue
	}
	r := &md.intRegs
	e := max(ePipe, s.regReady[r[0]], s.regReady[r[1]], s.regReady[r[2]])
	if md.fpA != 0 {
		if t := s.fpReady[md.fpA-1]; t > e {
			e = t
		}
	}
	if md.fpB != 0 {
		if t := s.fpReady[md.fpB-1]; t > e {
			e = t
		}
	}

	// ---- early address generation (decided at ID1/ID2, before issue) ----
	spec := noSpec
	if md.isLoad() {
		s.m.Loads++
		spec = s.speculate(in, md, te, d1, e)
		switch spec.path {
		// The assist path accounts into Predict: it has the prediction
		// path's timing and failure terms, and paper configurations never
		// attach an assist, so their Predict counters are untouched.
		case pathPredict, pathAssist:
			spec.applyTo(&s.m.Predict)
		case pathEarly:
			spec.applyTo(&s.m.Early)
		}
		if s.sink != nil && spec.eligible {
			sq := s.m.Insts - 1
			if spec.speculated {
				s.emit(Event{Kind: EvSpecLaunch, Seq: sq, PC: te.PC,
					Cycle: spec.specCycle, Path: spec.pathByte(), Addr: spec.specAddr})
			}
			if spec.forwarded {
				s.emit(Event{Kind: EvSpecForward, Seq: sq, PC: te.PC,
					Cycle: e, Path: spec.pathByte(), Lat: spec.lat})
			} else {
				s.emit(Event{Kind: EvSpecFail, Seq: sq, PC: te.PC,
					Cycle: e, Path: spec.pathByte(), Fail: spec.fail})
			}
		}
	}

	// ---- issue (enter EXE) ----
	// e >= lastIssue, and every cycle after lastIssue is free, so a full
	// issue group or unit costs exactly one cycle.
	eFlow := e
	var widthStall, fuStall int64
	if e == s.lastIssue {
		if s.issued >= s.issueCap {
			widthStall, e = 1, e+1
		} else if md.fu != fuNone && s.fuUsed[md.fu] >= s.fuCap[md.fu] {
			fuStall, e = 1, e+1
		}
	}
	if s.sink != nil {
		sq := s.m.Insts - 1
		if opStall := eFlow - ePipe; opStall > 0 {
			s.emit(Event{Kind: EvStall, Seq: sq, PC: te.PC, Cycle: ePipe,
				Cause: StallOperand, Cycles: opStall})
		}
		if widthStall > 0 {
			s.emit(Event{Kind: EvStall, Seq: sq, PC: te.PC, Cycle: eFlow,
				Cause: StallIssueWidth, Cycles: widthStall})
		}
		if fuStall > 0 {
			s.emit(Event{Kind: EvStall, Seq: sq, PC: te.PC, Cycle: eFlow,
				Cause: StallFU, Cycles: fuStall})
		}
	}
	if e > s.lastIssue {
		s.lastIssue, s.issued, s.fuUsed = e, 0, [4]uint8{}
	}
	s.issued++
	s.fuUsed[md.fu]++
	s.issueHist[s.seqIdx] = e
	s.seq++
	if s.seqIdx++; s.seqIdx == frontEndSlots {
		s.seqIdx = 0
	}

	done := e + 1 // completion (end cycle) for bookkeeping

	// ---- EXE/MEM and destination ready times ----
	switch {
	case md.isLoad():
		var ready, effLat int64
		switch {
		case spec.lat >= 0:
			// Forwarded: effective latency spec.lat (0 for the
			// early-calculation path, 1 for the prediction path).
			ready = e + spec.lat
			if spec.lat == 0 {
				s.m.ZeroCycleLoads++
			} else {
				s.m.OneCycleLoads++
			}
			done = e + 1
			effLat = spec.lat
		case spec.reusable:
			// The speculative access used the correct address but
			// its data arrived too late to forward (e.g. a cache
			// miss). The load is still satisfied by that access —
			// no second cache access, no extra port — the data
			// simply arrives when the fill completes (never
			// earlier than the normal MEM stage).
			m := e + 1
			dataEnd := spec.dataEnd
			if dataEnd < m {
				dataEnd = m
			}
			ready = dataEnd + 1
			done = dataEnd + 1
			effLat = ready - e
		default:
			m := s.memPort(e + 1)
			dataEnd, _, tagHit, miss := s.dc.access(te.EA, m, false, true)
			if s.sink != nil {
				s.emitDAccess(te.PC, te.EA, m, dataEnd, tagHit, miss, false)
			}
			ready = dataEnd + 1
			done = dataEnd + 1
			effLat = ready - e
		}
		s.m.LoadLatencySum += effLat
		if s.attrib != nil {
			s.recordLoad(in, md, te.PC, &spec, effLat)
		}
		if md.isFLoad() {
			s.fpReady[in.Rd] = ready
		} else if in.Rd != isa.RegZero {
			s.regReady[in.Rd] = ready
		}
		// Train the prediction table in MEM regardless of forwarding.
		s.updatePredictor(te, e+1, spec.path == pathPredict)
		if s.assist != nil {
			alloc := s.assist.Train(int64(te.PC), te.EA)
			if s.sink != nil {
				op := byte('T')
				if alloc {
					op = 'A'
				}
				s.emit(Event{Kind: EvMech, Seq: s.m.Insts - 1, PC: te.PC,
					Cycle: e + 1, Addr: te.EA, MechOp: op})
			}
		}

	case md.isStore():
		s.m.Stores++
		m := s.memPort(e + 1)
		ready, _, tagHit, miss := s.dc.access(te.EA, m, false, false) // write-through, no allocate
		if s.sink != nil {
			s.emitDAccess(te.PC, te.EA, m, ready, tagHit, miss, false)
		}
		done = m + 1
		s.recordStore(e, m, te.EA, int64(in.Width))

	case md.isBranch():
		s.resolveBranch(in, te, f, d1, e)
		done = e + 1

	default:
		lat := int64(md.lat)
		done = e + lat
		if md.wInt != 0 {
			s.regReady[md.wInt-1] = e + lat
		}
		if md.wFP != 0 {
			s.fpReady[md.wFP-1] = e + lat
		}
	}

	if in.Op == isa.OpCall && in.Rd != isa.RegZero {
		s.regReady[in.Rd] = e + 1
	}
	if done > s.maxDone {
		s.maxDone = done
	}
	if s.sink != nil {
		fwdLat := int64(-1)
		if md.isLoad() && spec.forwarded {
			fwdLat = spec.lat
		}
		s.emit(Event{Kind: EvRetire, Seq: s.m.Insts - 1, PC: te.PC, Cycle: done,
			Fetch: f, Issue: e, Done: done, Lat: fwdLat})
	}
	return nil
}

// takePort consumes a data-cache port at cycle if one is free. Queries are
// never earlier than lastIssue-1: a speculative access is reserved at e-1
// or e for an issue cycle e >= lastIssue, a MEM access after issue.
func (s *Sim) takePort(cycle int64) bool { return s.ports.tryUse(cycle, s.lastIssue-1) }

// memPort reserves the first free data-cache port from cycle m on and
// returns its cycle.
func (s *Sim) memPort(m int64) int64 {
	for !s.takePort(m) {
		m++
	}
	return m
}

func (s *Sim) recordStore(exe, mem, ea, width int64) {
	s.stores[s.storeHead] = storeRec{exe: exe, mem: mem, ea: ea, width: width}
	s.storeHead = (s.storeHead + 1) % len(s.stores)
	if mem > s.storeMaxMem {
		s.storeMaxMem = mem
	}
}

// memInterlock reports whether, at the given cycle, an older in-flight
// store could conflict with a speculative load of [ea, ea+width): either
// the store's address is not yet computed, or it overlaps and its data has
// not yet reached memory.
func (s *Sim) memInterlock(ea, width, cycle int64) bool {
	if s.storeMaxMem < cycle {
		return false // every recorded store has already written back
	}
	for i := range s.stores {
		st := &s.stores[i]
		if st.mem == 0 || st.mem < cycle {
			continue // already written (or empty slot)
		}
		if st.exe >= cycle {
			return true // address unknown at speculation time
		}
		if st.ea < ea+width && ea < st.ea+st.width {
			return true // overlapping, data not yet visible
		}
	}
	return false
}

// pathID names the early-address-generation path a load was steered to.
type pathID uint8

const (
	pathNone pathID = iota
	pathPredict
	pathEarly
	pathAssist
)

// specResult describes the outcome of early address generation for one
// load execution: lat >= 0 means data was forwarded with that effective
// latency; otherwise, reusable reports whether a speculative access with
// the correct address was issued anyway (so the load is satisfied by that
// access's data, available at the end of cycle dataEnd, without a second
// cache access).
//
// The remaining fields are the observability record: which path the load
// was steered to, how far the speculation got (eligible -> speculated ->
// forwarded), and the Section 3.2 failure-term bitmask when it did not
// forward. Both the global PathStats and the per-PC attribution table are
// driven from this one record via applyTo, so they can never disagree.
type specResult struct {
	lat      int64
	dataEnd  int64
	reusable bool

	path       pathID
	eligible   bool
	speculated bool
	forwarded  bool
	fail       FailMask
	specCycle  int64 // cycle the speculative access was issued
	specAddr   int64 // address it was issued with
}

var noSpec = specResult{lat: -1}

// pathByte renders the path for events ('P' predict, 'E' early,
// 'A' assist).
func (r *specResult) pathByte() byte {
	switch r.path {
	case pathPredict:
		return 'P'
	case pathAssist:
		return 'A'
	}
	return 'E'
}

// applyTo adds this execution's outcome to a PathStats accumulator, one
// counter per eligible/speculated/forwarded flag and failure-mask bit.
func (r *specResult) applyTo(ps *PathStats) {
	if r.eligible {
		ps.Eligible++
	}
	if r.speculated {
		ps.Speculated++
	}
	if r.forwarded {
		ps.Forwarded++
	}
	if r.fail == 0 {
		return
	}
	if r.fail&FailNoPrediction != 0 {
		ps.NoPrediction++
	}
	if r.fail&FailRegMiss != 0 {
		ps.RegMiss++
	}
	if r.fail&FailRegInterlock != 0 {
		ps.RegInterlock++
	}
	if r.fail&FailMemInterlock != 0 {
		ps.MemInterlock++
	}
	if r.fail&FailNoPort != 0 {
		ps.NoPort++
	}
	if r.fail&FailCacheMiss != 0 {
		ps.CacheMiss++
	}
	if r.fail&FailAddrMispredict != 0 {
		ps.AddrMispredict++
	}
}

// speculate runs the ID1/ID2 early-address-generation logic for a load.
// The result's path field records which mechanism this execution was
// steered to; pathPredict determines whether the MEM-stage table update
// allocates. The flavour driving SelCompiler comes from the decode cache,
// where any overlay passed to New has already been resolved. An assist
// mechanism replaces the table's ID1 probe and takes the prediction path
// with it.
func (s *Sim) speculate(in *isa.Inst, md *instMeta, te *emu.TraceEntry, d1, e int64) specResult {
	if s.assist != nil {
		addr, ok := s.assist.Lookup(int64(te.PC))
		if s.sink != nil {
			s.emit(Event{Kind: EvMech, Seq: s.m.Insts - 1, PC: te.PC,
				Cycle: d1 + 1, Addr: addr, Hit: ok, MechOp: 'L'})
		}
		return s.specPredict(in, te, e, addr, ok, pathAssist)
	}
	switch s.cfg.Select {
	case SelCompiler:
		switch md.flavor {
		case isa.LdP:
			return s.probeTable(in, te, e)
		case isa.LdE:
			return s.specEarly(in, te, e)
		}
	case SelAllPredict:
		return s.probeTable(in, te, e)
	case SelAllEarly:
		return s.specEarly(in, te, e)
	case SelHWDual:
		// Eickemeyer-Vassiliadis run-time selection: interlocked base
		// register at decode -> prediction table; otherwise early
		// calculation through the register cache.
		interlocked := in.Mode != isa.AMAbsolute && s.regReady[in.Base] > d1
		if interlocked {
			return s.probeTable(in, te, e)
		}
		return s.specEarly(in, te, e)
	}
	return noSpec
}

// updatePredictor trains the prediction table in MEM (cycle mem).
func (s *Sim) updatePredictor(te *emu.TraceEntry, mem int64, predictPath bool) {
	if s.table == nil {
		return
	}
	var st addrpred.Step
	switch {
	case predictPath:
		st = s.table.Update(te.PC, te.EA)
	case s.cfg.Select == SelHWDual:
		// Allocation is gated on interlocks, but entries that already
		// exist keep training on every execution.
		var ok bool
		if st, ok = s.table.UpdateIfPresent(te.PC, te.EA); !ok {
			return
		}
	default:
		return
	}
	if s.sink != nil {
		s.emit(Event{Kind: EvTableTransition, Seq: s.m.Insts - 1, PC: te.PC, Cycle: mem,
			From: st.From, To: st.To, Correct: st.Correct, Alloc: st.Alloc})
	}
}

// probeTable runs the ID1 prediction-table probe of the ld_p path and
// continues it in specPredict; without a table the load does not
// speculate.
func (s *Sim) probeTable(in *isa.Inst, te *emu.TraceEntry, e int64) specResult {
	if s.table == nil {
		return noSpec
	}
	predAddr, ok := s.table.Probe(te.PC)
	return s.specPredict(in, te, e, predAddr, ok, pathPredict)
}

// specPredict implements the prediction path after its ID1 probe: ID2
// speculative access with the predicted address, end-of-EXE verification.
// Forwarding requires !Mem_Interlock ∧ Table_Hit ∧ Port_Allocated ∧
// DCache_Hit ∧ CA==PA and yields an effective load latency of 1 cycle.
// path is pathPredict for the table probe and pathAssist for an assist
// mechanism's lookup, which shares this timing exactly. The assist trains
// in MEM on every load (see StepInst), mirroring the hardware-only
// predictor's always-update policy.
func (s *Sim) specPredict(in *isa.Inst, te *emu.TraceEntry, e, predAddr int64, ok bool, path pathID) specResult {
	r := specResult{lat: -1, path: path, eligible: true}
	if !ok {
		r.fail |= FailNoPrediction
		return r
	}
	// Like the early-calculation path, the speculative access is issued
	// on the load's last decode cycle: a load stalled at issue re-probes
	// while it waits, so its speculation overlaps in-flight stores less.
	// e >= f+3, so that cycle is never before ID2.
	specCycle := e - 1
	if !s.takePort(specCycle) {
		r.fail |= FailNoPort
		return r
	}
	r.speculated = true
	r.specCycle = specCycle
	r.specAddr = predAddr
	ready, hit, tagHit, miss := s.dc.access(predAddr, specCycle, true, true)
	if s.sink != nil {
		s.emitDAccess(te.PC, predAddr, specCycle, ready, tagHit, miss, true)
	}
	correct := predAddr == te.EA
	milk := s.memInterlock(te.EA, int64(in.Width), specCycle)
	fwd := hit && ready <= e-1 && correct && !milk
	if !correct {
		r.fail |= FailAddrMispredict
	}
	if !hit || ready > e-1 {
		r.fail |= FailCacheMiss
	}
	if milk {
		r.fail |= FailMemInterlock
	}
	if !fwd {
		// A correct-address access that merely arrived late (or
		// missed the cache) still satisfies the load when its data
		// lands; a memory interlock means the data may be stale and
		// must be re-fetched.
		r.dataEnd = ready
		r.reusable = correct && !milk
		return r
	}
	r.forwarded = true
	r.lat = 1
	return r
}

// specEarly implements the ld_e path: the base register's value is read
// from the addressing-register cache, the address formed by the dedicated
// full adder, and a speculative access dispatched from the decode stages.
// Forwarding requires !R_addr_Interlock ∧ !Mem_Interlock ∧ R_addr_Hit ∧
// Port_Allocated ∧ DCache_Hit.
//
// Dispatch timing: a load may sit in decode for many cycles while older
// instructions or its own base register hold up issue; the speculative
// access is (re)issued on its last decode cycle, so it uses the R_addr
// value as of cycle e-1 (e = the load's EXE cycle). Two outcomes:
//
//   - The base value was ready by cycle e-1: the access completes before
//     EXE and the data forwards with effective latency 0 (a zero-cycle
//     load — the consumer may issue with the load).
//   - The base arrives exactly at issue (the load was stalled on it): the
//     access overlaps the EXE address calculation and saves one cycle
//     (latency 1), the bound Chen & Wu report when the early path cannot
//     run ahead of the register file.
//
// The compiler-directed R_addr (bound by the ld_e itself) and the
// hardware-only allocate-on-use policy both bind after the lookup, so a
// load that just switched the binding does not hit; the bind is reported at
// e-1, where the lookup reads R_addr. Without a register cache the load
// does not speculate.
func (s *Sim) specEarly(in *isa.Inst, te *emu.TraceEntry, e int64) specResult {
	if s.regcache == nil {
		return noSpec
	}
	if in.Mode == isa.AMRegReg {
		// Only register+offset (and absolute) addresses can be formed
		// by the decode-stage adder. Not an eligible execution.
		r := noSpec
		r.path = pathEarly
		return r
	}
	r := specResult{lat: -1, path: pathEarly, eligible: true}

	hit := true
	lat := int64(0)
	specCycle := e - 1
	if in.Mode == isa.AMRegOffset {
		_, hit = s.regcache.Lookup(in.Base)
		ready := s.regReady[in.Base]
		// (Re)bind after the lookup: ld_e binds its base register;
		// hardware-only policies allocate base registers on use. The
		// entry is bound valid, and coherence with an in-flight producer
		// is checked against the scoreboard here (the R_addr_Interlock
		// term) in place of the paper's broadcast (DESIGN §5b rule 10).
		s.regcache.Bind(in.Base, te.BaseVal)
		if s.sink != nil {
			s.emit(Event{Kind: EvRegBind, Seq: s.m.Insts - 1, PC: te.PC, Cycle: e - 1,
				Reg: in.Base, Value: te.BaseVal})
		}
		if !hit {
			r.fail |= FailRegMiss
			return r
		}
		switch {
		case ready <= specCycle:
			// Base ready in time for a pre-EXE access.
		case ready <= e:
			// Base arrives at issue: overlap the access with EXE.
			lat = 1
			specCycle = e
		default:
			r.fail |= FailRegInterlock
			return r
		}
	}
	if !s.takePort(specCycle) {
		r.fail |= FailNoPort
		return r
	}
	r.speculated = true
	r.specCycle = specCycle
	r.specAddr = te.EA
	// Coherent R_addr implies the speculative address equals the
	// architectural effective address.
	dataEnd, chit, tagHit, miss := s.dc.access(te.EA, specCycle, true, true)
	if s.sink != nil {
		s.emitDAccess(te.PC, te.EA, specCycle, dataEnd, tagHit, miss, true)
	}
	milk := s.memInterlock(te.EA, int64(in.Width), specCycle)
	if milk {
		r.fail |= FailMemInterlock
		// Possibly-stale data: the normal access must re-fetch.
		return r
	}
	if !chit || dataEnd > specCycle {
		r.fail |= FailCacheMiss
		// Correct address, late data: the load waits for this
		// access's fill instead of re-accessing the cache.
		r.dataEnd = dataEnd
		r.reusable = true
		return r
	}
	r.forwarded = true
	r.lat = lat
	return r
}

// resolveBranch trains the BTB and computes the fetch redirect.
func (s *Sim) resolveBranch(in *isa.Inst, te *emu.TraceEntry, f, d1, e int64) {
	switch in.Op {
	case isa.OpBr:
		s.m.Branches++
		mis := s.btb.Update(te.PC, te.Taken, te.NextPC)
		if s.sink != nil {
			s.emit(Event{Kind: EvBranchResolve, Seq: s.m.Insts - 1, PC: te.PC,
				Cycle: e, Taken: te.Taken, Mispredict: mis})
		}
		switch {
		case mis:
			s.m.Mispredicts++
			s.nextFetch = e + 1
		case te.Taken:
			// Correctly predicted taken: the target is fetched in
			// the next cycle (taken branches end the fetch group).
			s.nextFetch = f + 1
		}
	case isa.OpJmp, isa.OpCall:
		// Direct target: a BTB hit redirects fetch with no bubble; a
		// miss is repaired at decode (one-cycle bubble).
		if tgt, ok := s.btb.Lookup(te.PC); ok && tgt == te.NextPC {
			s.nextFetch = f + 1
		} else {
			s.nextFetch = d1 + 1
		}
		s.btb.Insert(te.PC, te.NextPC)
	case isa.OpJr:
		// Register-indirect target: resolved in EXE on a BTB miss.
		if tgt, ok := s.btb.Lookup(te.PC); ok && tgt == te.NextPC {
			s.nextFetch = f + 1
		} else {
			s.nextFetch = e + 1
		}
		s.btb.Insert(te.PC, te.NextPC)
	}
	if s.nextFetch > s.groupCycle {
		s.groupCycle = s.nextFetch
		s.groupCount = 0
	}
}
