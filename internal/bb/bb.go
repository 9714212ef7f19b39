package bb

import (
	"fmt"
	"sync"
	"unsafe"

	"facile/internal/isa"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// Instr is one instruction of a block together with its microarchitectural
// descriptor and layout information.
type Instr struct {
	Inst x86.Inst
	// Desc points into the block's descriptor array; its Uops are the
	// instruction's own part of the block's µop array.
	Desc *isa.Desc
	Off  int // byte offset of the instruction in the block

	// Eff holds Inst's effects (the registers and flags the instruction
	// consumes and produces), derived once at build time with their
	// registers carved from the block's register array.
	Eff x86.Effects

	// FusedWithNext marks the first instruction of a macro-fused pair;
	// FusedWithPrev marks the conditional jump that was fused away. A fused
	// pair is treated as a single instruction (and a single fused-domain
	// µop) by the rest of the pipeline.
	FusedWithNext bool
	FusedWithPrev bool
}

// End returns the offset one past the last byte of the instruction.
func (i *Instr) End() int { return i.Off + i.Inst.Len }

// Block is a decoded basic block prepared for one microarchitecture.
type Block struct {
	Cfg   *uarch.Config
	Code  []byte
	Insts []Instr

	// The arrays the instructions' descriptors, µops and effect registers
	// are carved from, refilled in place by BuildInto.
	descs []isa.Desc
	uops  []isa.Uop
	regs  []x86.Reg

	// Derived state, precomputed by BuildInto (see the package comment).
	fusedUops   int
	issueUops   int
	execUops    []isa.Uop
	decodeUnits []*Instr
	jccErratum  bool
}

// decodeBufs holds the buffers BuildInto decodes into: the instructions are
// copied into the block, so the decoded list is scratch.
var decodeBufs = sync.Pool{New: func() any { return new([]x86.Inst) }}

// uopsPerInst sizes a block's µop array: real code averages about 1.3
// unfused-domain µops per instruction.
const uopsPerInst = 2

// Build decodes code and assembles a new block for cfg; see BuildInto.
func Build(cfg *uarch.Config, code []byte) (*Block, error) {
	b := new(Block)
	if err := BuildInto(b, cfg, code); err != nil {
		return nil, err
	}
	return b, nil
}

// BuildInto decodes code and assembles the block for cfg in b: each
// instruction's effects, descriptor, layout, and macro-fusion marking. The
// block owns its descriptors, their µops and the effects' registers, each
// kind carved from one per-block array. BuildInto refills b's arrays in
// place and grows them only for a block larger than b has held, so
// rebuilding a warm b allocates nothing, and a fresh one costs a fixed
// number of allocations however many instructions the block has. The
// instructions' Raw bytes subslice code. On error b's contents are
// unspecified, but b stays reusable.
func BuildInto(b *Block, cfg *uarch.Config, code []byte) error {
	buf := decodeBufs.Get().(*[]x86.Inst)
	defer decodeBufs.Put(buf)
	insts, err := x86.AppendDecodeBlock((*buf)[:0], code)
	if err != nil {
		return err
	}
	// Keep the grown buffer, without the references to code.
	*buf = insts
	defer clear(insts)
	if len(insts) == 0 {
		return fmt.Errorf("bb: empty block")
	}
	n := len(insts)
	b.Cfg, b.Code = cfg, code
	b.Insts = resize(b.Insts, n)
	b.descs = resize(b.descs, n)
	regs := resize(b.regs, x86.MaxEffectRegs*n)[:0]
	uops := resize(b.uops, uopsPerInst*n)[:0]
	base := unsafe.SliceData(uops)
	off := 0
	for k := range insts {
		ins := &b.Insts[k]
		*ins = Instr{Inst: insts[k], Desc: &b.descs[k], Off: off}
		ins.Eff, regs = ins.Inst.AppendEffects(regs)
		if uops, err = isa.Lookup(cfg, &ins.Inst, &ins.Eff, ins.Desc, uops); err != nil {
			return fmt.Errorf("bb: instruction %d (%s): %w", k, insts[k].String(), err)
		}
		off += insts[k].Len
	}
	b.uops, b.regs = uops, regs
	if unsafe.SliceData(uops) != base {
		// Appending moved the µop array: point every descriptor into the
		// final one, so the block holds one. A reused array's capacity does
		// not tell whether it moved; its base pointer does.
		lo := 0
		for k := range b.descs {
			if m := len(b.descs[k].Uops); m > 0 {
				b.descs[k].Uops = uops[lo : lo+m : lo+m]
				lo += m
			}
		}
	}

	// Macro-fusion marking: a fusible ALU instruction directly followed by a
	// compatible conditional jump fuses into a single µop that executes on
	// the branch ports.
	for k := 0; k+1 < len(b.Insts); k++ {
		cur := &b.Insts[k]
		next := &b.Insts[k+1]
		if cur.FusedWithPrev {
			continue
		}
		if isa.CanMacroFuse(cfg, cur.Desc, &cur.Inst, &next.Inst) {
			cur.FusedWithNext = true
			next.FusedWithPrev = true
			// The pair's compute µop executes on the branch ports. The
			// descriptor and its µops are the block's own and share nothing
			// with their neighbours, so they are rewritten in place.
			uops := cur.Desc.Uops
			for j := range uops {
				if uops[j].Role == uarch.RoleALU {
					uops[j].Role = uarch.RoleBranch
					uops[j].Ports = cfg.PortsFor(uarch.RoleBranch)
					break
				}
			}
		}
	}

	b.derive()
	return nil
}

// resize returns s with length n, reusing its array when it has room; the
// elements are left for the caller to overwrite. The result is never nil,
// so a fresh block and a rebuilt one hold the same (empty, non-nil) views.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release drops b's references to its code and configuration, the
// instructions' Raw bytes among them, and keeps its arrays for the next
// BuildInto: a pooled block must pin neither a caller's buffer nor a
// configuration. It clears the arrays up to their capacity, since a smaller
// block built after a larger one leaves the larger one's tail in place, and
// the decode-unit tail may point into an instruction array since replaced.
func (b *Block) Release() {
	b.Cfg, b.Code = nil, nil
	insts := b.Insts[:cap(b.Insts)]
	for k := range insts {
		insts[k].Inst.Raw = nil
	}
	clear(b.decodeUnits[:cap(b.decodeUnits)])
}

// derive precomputes every per-prediction view of the block. It must run
// after macro-fusion marking and is the only writer of the derived fields.
func (b *Block) derive() {
	units, exec := 0, 0
	for k := range b.Insts {
		ins := &b.Insts[k]
		if ins.FusedWithPrev {
			continue
		}
		units++
		if !ins.Desc.Eliminated {
			exec += len(ins.Desc.Uops)
		}
	}
	b.fusedUops, b.issueUops = 0, 0
	b.decodeUnits = resize(b.decodeUnits, units)[:0]
	b.execUops = resize(b.execUops, exec)[:0]
	for k := range b.Insts {
		ins := &b.Insts[k]
		if ins.FusedWithPrev {
			continue
		}
		b.fusedUops += ins.Desc.FusedUops
		b.issueUops += ins.Desc.IssueUops
		b.decodeUnits = append(b.decodeUnits, ins)
		if !ins.Desc.Eliminated {
			b.execUops = append(b.execUops, ins.Desc.Uops...)
		}
	}
	b.jccErratum = b.computeJCCErratum()
}

// Len returns the block length in bytes.
func (b *Block) Len() int { return len(b.Code) }

// EndsWithBranch reports whether the last instruction is a jump.
func (b *Block) EndsWithBranch() bool {
	return len(b.Insts) > 0 && b.Insts[len(b.Insts)-1].Inst.IsBranch()
}

// FusedUops returns the number of fused-domain µops per block iteration
// (macro-fused pairs count once; the fused-away jump contributes nothing).
func (b *Block) FusedUops() int { return b.fusedUops }

// IssueUops returns the number of µops issued by the renamer per iteration
// (fused-domain after unlamination).
func (b *Block) IssueUops() int { return b.issueUops }

// ExecUops returns the unfused-domain µops that are dispatched to execution
// ports (excluding eliminated instructions and fused-away jumps). The
// returned slice is shared and must be treated as read-only.
func (b *Block) ExecUops() []isa.Uop { return b.execUops }

// DecodeUnits returns the instructions as seen by the decoders: macro-fused
// pairs appear as their first instruction only. The returned slice is shared
// and must be treated as read-only.
func (b *Block) DecodeUnits() []*Instr { return b.decodeUnits }

// JCCErratumAffected reports whether the block triggers the JCC-erratum
// mitigation on cfg: a jump instruction (including the full extent of a
// macro-fused pair) that crosses or ends on a 32-byte boundary prevents the
// block from being cached in the DSB (paper footnote 1). The block is
// assumed to be 32-byte aligned at offset 0.
func (b *Block) JCCErratumAffected() bool { return b.jccErratum }

func (b *Block) computeJCCErratum() bool {
	if !b.Cfg.JCCErratum {
		return false
	}
	for k := range b.Insts {
		ins := &b.Insts[k]
		if !ins.Inst.IsBranch() {
			continue
		}
		start := ins.Off
		end := ins.End() // one past the last byte
		if ins.FusedWithPrev && k > 0 {
			start = b.Insts[k-1].Off
		}
		if end%32 == 0 || start/32 != (end-1)/32 {
			return true
		}
	}
	return false
}

// String renders the block for reports.
func (b *Block) String() string {
	var buf []byte
	for k := range b.Insts {
		marker := "  "
		if b.Insts[k].FusedWithNext {
			marker = " ┐"
		}
		if b.Insts[k].FusedWithPrev {
			marker = " ┘"
		}
		buf = fmt.Appendf(buf, "%3d:%s ", b.Insts[k].Off, marker)
		buf = append(b.Insts[k].Inst.AppendText(buf), '\n')
	}
	return string(buf)
}
