package pipeline

import "elag/internal/isa"

// The replay hot loop executes a handful of dynamic instructions per static
// one, so everything StepInst would otherwise rediscover per execution —
// instruction class, functional unit, source registers, destination,
// latency, load flavour — is decoded once per PC into a packed instMeta.
// This removes the per-instruction classification switches (IsALU/IsFP/
// IntRegsRead/WritesIntReg/...) from the replay path and is also where the
// flavour overlay is resolved: meta is private to one Sim, so simulations
// with different overlays share the Program without racing.

// Functional-unit selectors (instMeta.fu).
const (
	fuNone uint8 = iota
	fuALU
	fuFP
	fuBr
)

// Instruction-class bits (instMeta.flags).
const (
	mfLoad uint8 = 1 << iota
	mfStore
	mfBranch
	mfFLoad
)

// instMeta is the per-static-instruction decode cache. intRegs holds the
// integer source registers; unused slots hold RegZero, which is never
// written, so StepInst reads all three.
type instMeta struct {
	flags    uint8
	fu       uint8          // functional unit gating issue (fuNone..fuBr)
	flavor   isa.LoadFlavor // overlay-resolved load flavour (loads only)
	intRegs  [3]isa.Reg
	fpA, fpB uint8 // FP source registers + 1 (0 = none)
	wInt     uint8 // integer destination register + 1 (0 = none)
	wFP      uint8 // FP destination register + 1 (0 = none)
	lat      int32 // result latency of the non-memory default path
}

func (m *instMeta) isLoad() bool   { return m.flags&mfLoad != 0 }
func (m *instMeta) isStore() bool  { return m.flags&mfStore != 0 }
func (m *instMeta) isBranch() bool { return m.flags&mfBranch != 0 }
func (m *instMeta) isFLoad() bool  { return m.flags&mfFLoad != 0 }

// buildMeta decodes prog under cfg (for latencies) and flavors (nil = the
// flavours baked into the instruction stream).
func buildMeta(prog *isa.Program, cfg *Config, flavors isa.FlavorOverlay) []instMeta {
	meta := make([]instMeta, len(prog.Insts))
	var scratch []isa.Reg
	for pc := range prog.Insts {
		in := &prog.Insts[pc]
		md := &meta[pc]
		if in.IsLoad() {
			md.flags |= mfLoad
			md.flavor = flavors.At(pc, in.Flavor)
		}
		if in.IsStore() {
			md.flags |= mfStore
		}
		if in.IsBranch() {
			md.flags |= mfBranch
		}
		if in.Op == isa.OpFLoad {
			md.flags |= mfFLoad
		}
		switch {
		case in.IsALU():
			md.fu = fuALU
		case in.IsFP():
			md.fu = fuFP
		case in.IsBranch():
			md.fu = fuBr
		}
		scratch = in.IntRegsRead(scratch[:0])
		copy(md.intRegs[:], scratch)
		switch in.Op {
		case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
			md.fpA, md.fpB = uint8(in.Rs1)+1, uint8(in.Rs2)+1
		case isa.OpFMov, isa.OpCvtFI:
			md.fpA = uint8(in.Rs1) + 1
		case isa.OpFStore:
			md.fpA = uint8(in.Rs2) + 1
		}
		md.lat = 1
		switch in.Op {
		case isa.OpMul:
			md.lat = int32(cfg.LatMul)
		case isa.OpDiv, isa.OpRem:
			md.lat = int32(cfg.LatDiv)
		case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFMov, isa.OpCvtIF:
			md.lat = int32(cfg.LatFP)
		}
		if r, ok := in.WritesIntReg(); ok {
			md.wInt = uint8(r) + 1
		}
		if r, ok := in.WritesFPReg(); ok {
			md.wFP = uint8(r) + 1
		}
	}
	return meta
}
