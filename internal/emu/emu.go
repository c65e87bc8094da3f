// Package emu implements the functional (architectural) emulator for the
// repository's RISC ISA. It is the front half of the paper's
// "emulation-driven simulator": it executes programs exactly, producing a
// dynamic instruction trace — PCs, effective addresses, base-register
// values, and branch outcomes — that the timing model in package pipeline
// replays cycle by cycle.
package emu

import (
	"context"
	"errors"
	"fmt"
	"math"

	"elag/internal/chaosinject"
	"elag/internal/isa"
)

// Console I/O is memory-mapped: stores to these addresses are intercepted by
// the emulator instead of writing data memory.
const (
	// OutInt appends the stored value to the run's integer output stream.
	OutInt int64 = 0x7FFF_F000
	// OutChar appends the low byte of the stored value to the run's
	// character output stream.
	OutChar int64 = 0x7FFF_F008
)

// ErrFuel is the sentinel for a program that exceeds its instruction
// budget, usually indicating an infinite loop in a test program. Returned
// fuel faults carry position context; match them with errors.Is(err,
// ErrFuel) or errors.As into *isa.Fault.
var ErrFuel error = &isa.Fault{Kind: isa.FaultFuel}

// DefaultStackTop is the initial stack pointer if the runner does not set
// one. The stack grows downward.
const DefaultStackTop int64 = 0x4000_0000

// TraceEntry records one dynamic instruction for the timing model. For
// memory operations it carries the architecturally correct effective
// address, which the timing model uses to verify speculative addresses.
type TraceEntry struct {
	PC      int   // instruction index
	SeqNum  int64 // dynamic sequence number, 0-based
	EA      int64 // effective address (memory ops only)
	BaseVal int64 // value of the base register when executed (reg modes)
	Taken   bool  // branch outcome (OpBr); true for jmp/call/jr
	NextPC  int   // PC of the next executed instruction
}

// Result summarizes an emulation run.
type Result struct {
	ExitCode     int64
	DynamicInsts int64
	DynamicLoads int64
	DynamicStore int64
	IntOut       []int64 // values stored to OutInt, in order
	CharOut      []byte  // bytes stored to OutChar, in order
}

// Output returns a compact printable form of the run's observable output,
// used by tests to compare architectural results across configurations.
func (r *Result) Output() string {
	return fmt.Sprintf("exit=%d ints=%v chars=%q", r.ExitCode, r.IntOut, string(r.CharOut))
}

// CPU is the architectural machine state plus the loaded program.
type CPU struct {
	Prog *isa.Program
	Mem  *Memory
	R    [isa.NumIntRegs]int64
	F    [isa.NumFPRegs]float64
	PC   int

	res    Result
	halted bool
}

// New creates a CPU with prog loaded: data image copied in, PC at the entry
// point, and the stack pointer initialized.
func New(prog *isa.Program) *CPU {
	c := &CPU{Prog: prog, Mem: NewMemory(), PC: prog.Entry}
	c.Mem.LoadImage(prog.DataBase, prog.Data)
	c.R[isa.RegSP] = DefaultStackTop
	return c
}

// Halted reports whether the program has executed OpHalt.
func (c *CPU) Halted() bool { return c.halted }

// Result returns the run summary; valid once Halted is true (or at any point
// for the counters accumulated so far).
func (c *CPU) Result() Result { return c.res }

// EA computes the architectural effective address of a memory instruction
// given the current register state.
func (c *CPU) EA(in *isa.Inst) int64 {
	switch in.Mode {
	case isa.AMRegOffset:
		return c.R[in.Base] + in.Imm
	case isa.AMRegReg:
		return c.R[in.Base] + c.R[in.Index]
	default:
		return in.Imm
	}
}

// fault builds a typed architectural fault positioned at the current
// instruction.
func (c *CPU) fault(kind isa.FaultKind, addr int64, detail string) *isa.Fault {
	return &isa.Fault{Kind: kind, PC: c.PC, SeqNum: c.res.DynamicInsts, Addr: addr, Detail: detail}
}

// checkAccess validates the effective address of a memory operation,
// returning a positioned *isa.Fault (misaligned or out-of-bounds) or nil.
func (c *CPU) checkAccess(ea int64, width int) error {
	if f := c.Mem.CheckAccess(ea, width); f != nil {
		f.PC, f.SeqNum = c.PC, c.res.DynamicInsts
		return f
	}
	return nil
}

// Step executes one instruction and fills te (which may be nil) with its
// trace record. Architectural faults — bad PC, misaligned or out-of-bounds
// memory access, illegal opcode, division by zero — are returned as typed
// *isa.Fault errors; architectural state is left as of the instruction
// before the faulting one.
func (c *CPU) Step(te *TraceEntry) error {
	if c.halted {
		return errors.New("emu: step after halt")
	}
	if c.PC < 0 || c.PC >= len(c.Prog.Insts) {
		return c.fault(isa.FaultBadPC, 0,
			fmt.Sprintf("PC outside program [0,%d)", len(c.Prog.Insts)))
	}
	in := &c.Prog.Insts[c.PC]
	pc := c.PC
	next := pc + 1
	var ea, baseVal int64
	taken := false

	src2 := func() int64 {
		if in.SrcImm {
			return in.Imm
		}
		return c.R[in.Rs2]
	}
	setR := func(r isa.Reg, v int64) {
		if r != isa.RegZero {
			c.R[r] = v
		}
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		setR(in.Rd, c.R[in.Rs1]+src2())
	case isa.OpSub:
		setR(in.Rd, c.R[in.Rs1]-src2())
	case isa.OpMul:
		setR(in.Rd, c.R[in.Rs1]*src2())
	case isa.OpDiv:
		d := src2()
		if d == 0 {
			return c.fault(isa.FaultDivZero, 0, "")
		}
		setR(in.Rd, c.R[in.Rs1]/d)
	case isa.OpRem:
		d := src2()
		if d == 0 {
			return c.fault(isa.FaultDivZero, 0, "remainder")
		}
		setR(in.Rd, c.R[in.Rs1]%d)
	case isa.OpAnd:
		setR(in.Rd, c.R[in.Rs1]&src2())
	case isa.OpOr:
		setR(in.Rd, c.R[in.Rs1]|src2())
	case isa.OpXor:
		setR(in.Rd, c.R[in.Rs1]^src2())
	case isa.OpSll:
		setR(in.Rd, c.R[in.Rs1]<<(uint64(src2())&63))
	case isa.OpSrl:
		setR(in.Rd, int64(uint64(c.R[in.Rs1])>>(uint64(src2())&63)))
	case isa.OpSra:
		setR(in.Rd, c.R[in.Rs1]>>(uint64(src2())&63))
	case isa.OpSlt:
		if c.R[in.Rs1] < src2() {
			setR(in.Rd, 1)
		} else {
			setR(in.Rd, 0)
		}
	case isa.OpSltu:
		if uint64(c.R[in.Rs1]) < uint64(src2()) {
			setR(in.Rd, 1)
		} else {
			setR(in.Rd, 0)
		}
	case isa.OpLUI:
		setR(in.Rd, in.Imm)

	case isa.OpLoad:
		ea = c.EA(in)
		baseVal = c.R[in.Base]
		if err := c.checkAccess(ea, int(in.Width)); err != nil {
			return err
		}
		var v int64
		if in.Signed {
			v = c.Mem.ReadSigned(ea, int(in.Width))
		} else {
			v = int64(c.Mem.Read(ea, int(in.Width)))
		}
		setR(in.Rd, v)
		c.res.DynamicLoads++
	case isa.OpStore:
		ea = c.EA(in)
		baseVal = c.R[in.Base]
		if err := c.checkAccess(ea, int(in.Width)); err != nil {
			return err
		}
		c.res.DynamicStore++
		switch ea {
		case OutInt:
			c.res.IntOut = append(c.res.IntOut, c.R[in.Rs2])
		case OutChar:
			c.res.CharOut = append(c.res.CharOut, byte(c.R[in.Rs2]))
		default:
			c.Mem.Write(ea, uint64(c.R[in.Rs2]), int(in.Width))
		}
	case isa.OpFLoad:
		ea = c.EA(in)
		baseVal = c.R[in.Base]
		if err := c.checkAccess(ea, 8); err != nil {
			return err
		}
		c.F[in.Rd] = f64frombits(c.Mem.Read(ea, 8))
		c.res.DynamicLoads++
	case isa.OpFStore:
		ea = c.EA(in)
		baseVal = c.R[in.Base]
		if err := c.checkAccess(ea, 8); err != nil {
			return err
		}
		c.Mem.Write(ea, f64bits(c.F[in.Rs2]), 8)
		c.res.DynamicStore++

	case isa.OpBr:
		if in.Cond.Eval(c.R[in.Rs1], src2()) {
			next, taken = in.Target, true
		}
	case isa.OpJmp:
		next, taken = in.Target, true
	case isa.OpCall:
		setR(in.Rd, int64(pc+1))
		next, taken = in.Target, true
	case isa.OpJr:
		next, taken = int(c.R[in.Rs1]), true

	case isa.OpFAdd:
		c.F[in.Rd] = c.F[in.Rs1] + c.F[in.Rs2]
	case isa.OpFSub:
		c.F[in.Rd] = c.F[in.Rs1] - c.F[in.Rs2]
	case isa.OpFMul:
		c.F[in.Rd] = c.F[in.Rs1] * c.F[in.Rs2]
	case isa.OpFDiv:
		c.F[in.Rd] = c.F[in.Rs1] / c.F[in.Rs2]
	case isa.OpFMov:
		c.F[in.Rd] = c.F[in.Rs1]
	case isa.OpCvtIF:
		c.F[in.Rd] = float64(c.R[in.Rs1])
	case isa.OpCvtFI:
		setR(in.Rd, int64(c.F[in.Rs1]))

	case isa.OpHalt:
		c.halted = true
		c.res.ExitCode = c.R[in.Rs1]
		next = pc
	default:
		return c.fault(isa.FaultIllegalOp, 0, fmt.Sprintf("opcode %v", in.Op))
	}

	if te != nil {
		te.PC = pc
		te.SeqNum = c.res.DynamicInsts
		te.EA = ea
		te.BaseVal = baseVal
		te.Taken = taken
		te.NextPC = next
	}
	c.res.DynamicInsts++
	c.PC = next
	return nil
}

// Trace is the dynamic instruction trace in a packed columnar
// (structure-of-arrays) layout: one parallel slice per TraceEntry field,
// with the dynamic sequence number implicit in the index (offset by Seq0
// for chunks of a streamed trace). The replay loop streams ~25 bytes per
// instruction instead of the ~48 bytes of a padded []TraceEntry, and a
// trace sized from the retired-instruction count is allocated exactly once
// (no append regrowth). A Trace is immutable after RunTrace returns; any
// number of timing simulations may replay it concurrently. Chunks handed
// out by StreamTrace are the exception: they are recycled, and stay intact
// only until RingDepth(chunkSize)-1 further yields have returned.
type Trace struct {
	// Seq0 is the dynamic sequence number of entry 0: zero for a whole
	// materialized trace, the running instruction count for a chunk of a
	// streamed one.
	Seq0    int64
	PC      []int32 // instruction index
	NextPC  []int32 // PC of the next executed instruction
	EA      []int64 // effective address (memory ops only)
	BaseVal []int64 // base-register value when executed (reg modes)
	Taken   []bool  // branch outcome (OpBr); true for jmp/call/jr
}

// NewTrace returns an empty trace with exact capacity for n entries.
func NewTrace(n int) *Trace {
	if n < 0 {
		n = 0
	}
	return &Trace{
		PC:      make([]int32, 0, n),
		NextPC:  make([]int32, 0, n),
		EA:      make([]int64, 0, n),
		BaseVal: make([]int64, 0, n),
		Taken:   make([]bool, 0, n),
	}
}

// Len returns the number of recorded instructions.
func (t *Trace) Len() int { return len(t.PC) }

// At materializes entry i as a TraceEntry (SeqNum = Seq0+i). Replay hot
// loops read the columns directly; At is the convenience accessor for
// checkers and tests.
func (t *Trace) At(i int) TraceEntry {
	return TraceEntry{
		PC:      int(t.PC[i]),
		SeqNum:  t.Seq0 + int64(i),
		EA:      t.EA[i],
		BaseVal: t.BaseVal[i],
		Taken:   t.Taken[i],
		NextPC:  int(t.NextPC[i]),
	}
}

// reset empties the trace for reuse as the next chunk, keeping the column
// capacity and advancing Seq0 to the given sequence number.
func (t *Trace) reset(seq0 int64) {
	t.Seq0 = seq0
	t.PC = t.PC[:0]
	t.NextPC = t.NextPC[:0]
	t.EA = t.EA[:0]
	t.BaseVal = t.BaseVal[:0]
	t.Taken = t.Taken[:0]
}

// Fill writes entry i into te (SeqNum = Seq0+i). The replay loop reuses
// one stack TraceEntry across the whole trace this way.
func (t *Trace) Fill(i int, te *TraceEntry) {
	te.PC = int(t.PC[i])
	te.SeqNum = t.Seq0 + int64(i)
	te.EA = t.EA[i]
	te.BaseVal = t.BaseVal[i]
	te.Taken = t.Taken[i]
	te.NextPC = int(t.NextPC[i])
}

func (t *Trace) push(te *TraceEntry) {
	t.PC = append(t.PC, int32(te.PC))
	t.NextPC = append(t.NextPC, int32(te.NextPC))
	t.EA = append(t.EA, te.EA)
	t.BaseVal = append(t.BaseVal, te.BaseVal)
	t.Taken = append(t.Taken, te.Taken)
}

// Run executes prog to completion (or until fuel instructions have retired)
// and returns the run summary. fuel <= 0 means a generous default.
func Run(prog *isa.Program, fuel int64) (Result, error) {
	return runTrace(prog, fuel, nil)
}

// RunTrace executes prog and also returns the full dynamic instruction
// trace for replay by the timing model. The trace columns are sized
// exactly: a traceless dry run counts the retired instructions first
// (emulation is deterministic, so the count is exact, and the dry pass's
// error, if any, recurs identically in the traced pass).
func RunTrace(prog *isa.Program, fuel int64) (Result, *Trace, error) {
	dry, _ := runTrace(prog, fuel, nil)
	t := NewTrace(int(dry.DynamicInsts))
	res, err := runTrace(prog, fuel, t)
	return res, t, err
}

// DefaultChunkSize is the streaming chunk size used when a caller passes
// chunkSize <= 0: 4096 entries ≈ 100 KB of columns, small enough to stay
// resident in L2 while every batched pipeline state replays it, large
// enough that per-chunk overhead vanishes. StreamTrace's ring holds
// RingDepth(DefaultChunkSize) = 8 such chunks, about 800 KB.
const DefaultChunkSize = 4096

// RingDepth is the number of chunk buffers StreamTrace recycles at
// chunkSize (<= 0 for DefaultChunkSize): enough for 32,768 entries,
// clamped to [2, 8], so the ring's memory is bounded by entries rather
// than by buffer count.
func RingDepth(chunkSize int) int {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return min(max(32768/chunkSize, 2), 8)
}

// StreamTrace executes prog like RunTrace but delivers the dynamic trace
// in fixed-capacity chunks through yield instead of materializing it, so
// peak trace memory is O(chunkSize) regardless of fuel — the path for
// 100M+ instruction runs that could never hold a full columnar trace.
//
// Chunks are recycled through a ring of RingDepth(chunkSize) buffers: a
// yielded chunk stays intact until depth−1 further yields have returned,
// and no longer (the last depth−1 chunks stay intact after StreamTrace
// returns). A consumer may thus keep replaying chunk k while the emulator
// fills chunks k+1 … k+depth−1, provided it is done with chunk k before
// the yield of chunk k+depth−1 returns; one that needs the data longer
// must copy it. Each buffer holds min(chunkSize, fuel) entries, so a
// short run at a huge chunk size costs only what it emulates. Chunk
// boundaries carry no meaning — concatenating the yielded chunks
// reproduces, bit for bit, the trace RunTrace would have built, with Seq0
// marking each chunk's position. Unlike RunTrace, no dry counting pass is
// needed: chunk capacity is fixed up front, so the program is emulated
// exactly once.
//
// On an architectural fault (including fuel exhaustion) the partial chunk
// is flushed to yield first, then the fault is returned: consumers observe
// the complete prefix trace, whose timing is still valid. An error
// returned by yield aborts the run and is returned verbatim.
func StreamTrace(prog *isa.Program, fuel int64, chunkSize int, yield func(*Trace) error) (Result, error) {
	return StreamTraceContext(context.Background(), prog, fuel, chunkSize, yield)
}

// StreamTraceContext is StreamTrace with cooperative cancellation: ctx is
// checked between chunks (never mid-chunk), so a run aborts within one
// chunk's worth of emulation of ctx being cancelled or its deadline
// passing, returning the ctx error. An uncancelled run produces results
// byte-identical to StreamTrace — the check is outside the emulation loop
// and never perturbs the trace.
func StreamTraceContext(ctx context.Context, prog *isa.Program, fuel int64, chunkSize int, yield func(*Trace) error) (Result, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if fuel <= 0 {
		fuel = 200_000_000
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ring := newRing(RingDepth(chunkSize), int(min(int64(chunkSize), fuel)))
	yields := 0
	t := &ring[0]
	c := New(prog)
	var te TraceEntry
	flush := func() error {
		// The chunk boundary is the cancellation point: a cancelled run
		// stops before its next chunk is delivered, so consumers never see
		// a chunk produced after cancellation. It is also where chaos
		// testing injects a degraded host (slow-chunk), which must honor
		// the same deadline a real slowdown would.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := chaosinject.SlowChunk(ctx); err != nil {
			return err
		}
		if t.Len() == 0 {
			return nil
		}
		seq := t.Seq0 + int64(t.Len())
		if err := yield(t); err != nil {
			return err
		}
		yields++
		t = &ring[yields%len(ring)]
		t.reset(seq)
		return nil
	}
	for !c.Halted() {
		if c.res.DynamicInsts >= fuel {
			fault := &isa.Fault{Kind: isa.FaultFuel, PC: c.PC, SeqNum: c.res.DynamicInsts}
			if err := flush(); err != nil {
				return c.res, err
			}
			return c.res, fault
		}
		if err := c.Step(&te); err != nil {
			if ferr := flush(); ferr != nil {
				return c.res, ferr
			}
			return c.res, err
		}
		t.push(&te)
		if t.Len() == chunkSize {
			if err := flush(); err != nil {
				return c.res, err
			}
		}
	}
	return c.res, flush()
}

// newRing returns depth empty chunk buffers of size entries each, carved
// from one backing array per column, so a deeper ring costs no more
// allocations than a shallow one.
func newRing(depth, size int) []Trace {
	all := NewTrace(depth * size)
	ring := make([]Trace, depth)
	for i := range ring {
		lo, hi := i*size, (i+1)*size
		ring[i] = Trace{
			PC:      all.PC[lo:lo:hi],
			NextPC:  all.NextPC[lo:lo:hi],
			EA:      all.EA[lo:lo:hi],
			BaseVal: all.BaseVal[lo:lo:hi],
			Taken:   all.Taken[lo:lo:hi],
		}
	}
	return ring
}

func runTrace(prog *isa.Program, fuel int64, t *Trace) (Result, error) {
	if fuel <= 0 {
		fuel = 200_000_000
	}
	c := New(prog)
	var te TraceEntry
	for !c.Halted() {
		if c.res.DynamicInsts >= fuel {
			return c.res,
				&isa.Fault{Kind: isa.FaultFuel, PC: c.PC, SeqNum: c.res.DynamicInsts}
		}
		if t == nil {
			if err := c.Step(nil); err != nil {
				return c.res, err
			}
			continue
		}
		if err := c.Step(&te); err != nil {
			return c.res, err
		}
		t.push(&te)
	}
	return c.res, nil
}

func f64bits(f float64) uint64 { return math.Float64bits(f) }

func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
