package emu

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"elag/internal/asm"
	"elag/internal/asm/asmtest"
	"elag/internal/isa"
)

func run(t *testing.T, src string) Result {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, err := Run(p, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
	main:	li r1, 7
		li r2, 3
		add r3, r1, r2    ; 10
		sub r4, r3, 1     ; 9
		mul r5, r4, r4    ; 81
		div r6, r5, 2     ; 40
		rem r7, r5, 7     ; 4
		and r8, r5, 68    ; 81&68 = 64
		or  r9, r8, 1     ; 65
		xor r10, r9, 64   ; 1
		sll r11, r10, 6   ; 64
		srl r12, r11, 3   ; 8
		li  r13, -16
		sra r14, r13, 2   ; -4
		slt r15, r13, r12 ; 1
		sltu r16, r13, r12 ; 0 (-16 unsigned is huge)
		add r20, r0, 0
		add r20, r20, r3
		add r20, r20, r4
		add r20, r20, r5
		add r20, r20, r6
		add r20, r20, r7
		add r20, r20, r8
		add r20, r20, r9
		add r20, r20, r10
		add r20, r20, r11
		add r20, r20, r12
		add r20, r20, r14
		add r20, r20, r15
		add r20, r20, r16
		halt r20
	`)
	want := int64(10 + 9 + 81 + 40 + 4 + 64 + 65 + 1 + 64 + 8 - 4 + 1 + 0)
	if res.ExitCode != want {
		t.Errorf("exit = %d, want %d", res.ExitCode, want)
	}
}

func TestRegZeroIsHardwired(t *testing.T) {
	res := run(t, `
	main:	add r0, r0, 99
		halt r0
	`)
	if res.ExitCode != 0 {
		t.Errorf("write to r0 stuck: exit %d", res.ExitCode)
	}
}

func TestMemoryWidthsAndSign(t *testing.T) {
	res := run(t, `
		.data
	buf:	.space 64
		.text
	main:	li r1, -2           ; 0xFFFF...FE
		li r2, buf
		st1 r1, r2(0)
		st2 r1, r2(8)
		st4 r1, r2(16)
		st8 r1, r2(24)
		ld1_n r3, r2(0)     ; 254 zero-extended
		ld1s_n r4, r2(0)    ; -2 sign-extended
		ld2_n r5, r2(8)     ; 65534
		ld2s_n r6, r2(8)    ; -2
		ld4s_n r7, r2(16)   ; -2
		ld8_n r8, r2(24)    ; -2
		li r9, 2147479552   ; OutInt port
		st8 r3, r9(0)
		st8 r4, r9(0)
		st8 r5, r9(0)
		st8 r6, r9(0)
		st8 r7, r9(0)
		st8 r8, r9(0)
		halt r0
	`)
	want := []int64{254, -2, 65534, -2, -2, -2}
	if len(res.IntOut) != len(want) {
		t.Fatalf("got %v, want %v", res.IntOut, want)
	}
	for i := range want {
		if res.IntOut[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, res.IntOut[i], want[i])
		}
	}
}

func TestBranchesAndLoop(t *testing.T) {
	res := run(t, `
	main:	li r1, 0
		li r2, 0
	loop:	add r2, r2, r1
		add r1, r1, 1
		blt r1, 101, loop
		halt r2
	`)
	if res.ExitCode != 5050 {
		t.Errorf("sum = %d, want 5050", res.ExitCode)
	}
}

func TestCallRet(t *testing.T) {
	res := run(t, `
	main:	li r1, 20
		call r63, double
		halt r1
	double:	add r1, r1, r1
		ret
	`)
	if res.ExitCode != 40 {
		t.Errorf("exit = %d, want 40", res.ExitCode)
	}
}

func TestTraceRecordsLoadsAndBranches(t *testing.T) {
	p, err := asm.Assemble(`
		.data
	v:	.word 77
		.text
	main:	ld8_n r1, (v)
		beq r1, 77, yes
		halt r0
	yes:	halt r1
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, trace, err := RunTrace(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 77 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
	if trace.Len() != 3 {
		t.Fatalf("trace length %d, want 3", trace.Len())
	}
	if trace.At(0).EA != p.DataSymbols["v"] {
		t.Errorf("load EA = %#x, want %#x", trace.At(0).EA, p.DataSymbols["v"])
	}
	if !trace.At(1).Taken || trace.At(1).NextPC != p.Symbols["yes"] {
		t.Errorf("branch trace wrong: %+v", trace.At(1))
	}
	if trace.At(0).Taken || trace.At(0).NextPC != 1 {
		t.Errorf("non-branch trace wrong: %+v", trace.At(0))
	}
}

// TestStreamTraceRetainsOneRound: a yielded chunk stays intact until the
// next yield returns — the two-deep ring's guarantee, on which
// pipeline.Replay's overlap of emulation with replay rests. Chunk k's
// columns, copied when it was yielded, must be unchanged while chunk k+1
// is being yielded.
func TestStreamTraceRetainsOneRound(t *testing.T) {
	p := asmtest.MustAssemble(t, `
	main:	li r1, 0
		li r2, 65536
	loop:	ld8_n r3, r2(0)
		add r2, r2, 8
		add r1, r1, 1
		blt r1, 500, loop
		halt r0
	`)
	clone := func(c *Trace) *Trace {
		d := NewTrace(c.Len())
		d.Seq0 = c.Seq0
		d.PC = append(d.PC, c.PC...)
		d.NextPC = append(d.NextPC, c.NextPC...)
		d.EA = append(d.EA, c.EA...)
		d.BaseVal = append(d.BaseVal, c.BaseVal...)
		d.Taken = append(d.Taken, c.Taken...)
		return d
	}
	var prev, saved *Trace
	rounds := 0
	_, err := StreamTrace(p, 0, 64, func(c *Trace) error {
		if prev != nil && !reflect.DeepEqual(clone(prev), saved) {
			t.Fatalf("chunk at seq %d changed while the next one was yielded", saved.Seq0)
		}
		prev, saved = c, clone(c)
		rounds++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 3 {
		t.Fatalf("%d chunks yielded, want at least 3", rounds)
	}
}

func TestFuelExhaustion(t *testing.T) {
	p := asmtest.MustAssemble(t, "main: jmp main")
	_, err := Run(p, 100)
	if !errors.Is(err, ErrFuel) {
		t.Errorf("err = %v, want ErrFuel", err)
	}
	var f *isa.Fault
	if !errors.As(err, &f) || f.Kind != isa.FaultFuel {
		t.Errorf("err = %#v, want *isa.Fault{Kind: FaultFuel}", err)
	}
}

func TestDivByZeroFaults(t *testing.T) {
	p := asmtest.MustAssemble(t, "main: div r1, r1, r0\nhalt r0")
	_, err := Run(p, 100)
	if err == nil {
		t.Errorf("division by zero did not fault")
	}
	assertFault(t, err, isa.FaultDivZero)
}

// assertFault checks err is a *isa.Fault of the given kind, matchable
// both by errors.As and by errors.Is against a kind-only template.
func assertFault(t *testing.T, err error, kind isa.FaultKind) {
	t.Helper()
	var f *isa.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %T (%v), want *isa.Fault", err, err)
	}
	if f.Kind != kind {
		t.Fatalf("fault kind = %v, want %v (fault: %v)", f.Kind, kind, f)
	}
	if !errors.Is(err, &isa.Fault{Kind: kind}) {
		t.Errorf("errors.Is does not match kind template for %v", err)
	}
	if f.Error() == "" {
		t.Errorf("fault has empty message")
	}
}

func TestMisalignedLoadFaults(t *testing.T) {
	p := asmtest.MustAssemble(t, "main:\tli r2, 4\n\tld8_n r1, r2(0)\n\thalt r1")
	_, err := Run(p, 100)
	assertFault(t, err, isa.FaultMisaligned)
	var f *isa.Fault
	errors.As(err, &f)
	if f.Addr != 4 || f.PC != 1 {
		t.Errorf("fault context = %+v, want Addr 4 at PC 1", f)
	}
}

func TestOutOfBoundsStoreFaults(t *testing.T) {
	p := asmtest.MustAssemble(t, "main:\tli r2, -8\n\tst8 r1, r2(0)\n\thalt r1")
	_, err := Run(p, 100)
	assertFault(t, err, isa.FaultOutOfBounds)

	// Above the top of the address space too.
	p = asmtest.MustAssemble(t, "main:\tli r2, 1\n\tsll r2, r2, 41\n\tst8 r1, r2(0)\n\thalt r1")
	_, err = Run(p, 100)
	assertFault(t, err, isa.FaultOutOfBounds)
}

func TestJumpPastProgramFaults(t *testing.T) {
	// jr to a PC beyond the last instruction.
	p := asmtest.MustAssemble(t, "main:\tli r5, 1000\n\tjr r5")
	_, err := Run(p, 100)
	assertFault(t, err, isa.FaultBadPC)

	// Falling off the end of the text (no halt) is the same fault.
	p = asmtest.MustAssemble(t, "main:\tadd r1, r1, 1")
	_, err = Run(p, 100)
	assertFault(t, err, isa.FaultBadPC)
}

func TestIllegalOpcodeFaults(t *testing.T) {
	p := &isa.Program{
		Insts:       []isa.Inst{{Op: isa.Op(250)}},
		Symbols:     map[string]int{"main": 0},
		DataSymbols: map[string]int64{},
	}
	_, err := Run(p, 100)
	assertFault(t, err, isa.FaultIllegalOp)
}

func TestFaultCarriesSequenceNumber(t *testing.T) {
	p := asmtest.MustAssemble(t, "main:\tnop\n\tnop\n\tli r2, 4\n\tld8_n r1, r2(0)\n\thalt r1")
	_, err := Run(p, 100)
	var f *isa.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v", err)
	}
	if f.SeqNum != 3 {
		t.Errorf("fault SeqNum = %d, want 3", f.SeqNum)
	}
}

func TestFloatingPoint(t *testing.T) {
	res := run(t, `
	main:	li r1, 7
		cvtif f1, r1
		li r2, 2
		cvtif f2, r2
		fdiv f3, f1, f2   ; 3.5
		fadd f4, f3, f3   ; 7.0
		fmul f5, f4, f2   ; wrong: f2 not set? f2 = 2.0; 14.0
		fsub f6, f5, f1   ; 7.0
		cvtfi r3, f6
		halt r3
	`)
	if res.ExitCode != 7 {
		t.Errorf("fp result = %d, want 7", res.ExitCode)
	}
}

// Property: memory reads return exactly what was written, for all widths,
// and unwritten memory reads as zero.
func TestMemoryRoundTrip(t *testing.T) {
	f := func(addr int64, v uint64, w uint8) bool {
		width := []int{1, 2, 4, 8}[int(w)%4]
		addr &= 0x7FFF_FFFF
		m := NewMemory()
		m.Write(addr, v, width)
		var mask uint64 = (1 << (8 * uint(width))) - 1
		if width == 8 {
			mask = ^uint64(0)
		}
		return m.Read(addr, width) == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := int64(pageSize - 3) // straddles the first page boundary
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
}

func TestMemorySignExtension(t *testing.T) {
	m := NewMemory()
	m.Write(100, 0x80, 1)
	if got := m.ReadSigned(100, 1); got != -128 {
		t.Errorf("signed byte = %d, want -128", got)
	}
	if got := m.Read(100, 1); got != 0x80 {
		t.Errorf("unsigned byte = %#x", got)
	}
}

func TestEAModes(t *testing.T) {
	c := New(&isa.Program{Insts: []isa.Inst{{Op: isa.OpHalt}}})
	c.R[2] = 1000
	c.R[3] = 24
	if ea := c.EA(&isa.Inst{Mode: isa.AMRegOffset, Base: 2, Imm: 8}); ea != 1008 {
		t.Errorf("reg+off EA = %d", ea)
	}
	if ea := c.EA(&isa.Inst{Mode: isa.AMRegReg, Base: 2, Index: 3}); ea != 1024 {
		t.Errorf("reg+reg EA = %d", ea)
	}
	if ea := c.EA(&isa.Inst{Mode: isa.AMAbsolute, Imm: 4096}); ea != 4096 {
		t.Errorf("absolute EA = %d", ea)
	}
}
