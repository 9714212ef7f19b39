package bb

import (
	"fmt"

	"facile/internal/isa"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// Instr is one instruction of a block together with its microarchitectural
// descriptor and layout information.
type Instr struct {
	Inst x86.Inst
	Desc *isa.Desc
	Off  int // byte offset of the instruction in the block

	// Eff caches Inst.Effects() (the registers and flags the instruction
	// consumes and produces), derived once at build time.
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

	// Derived state, precomputed by Build (see the package comment).
	fusedUops   int
	issueUops   int
	execUops    []isa.Uop
	decodeUnits []*Instr
	jccErratum  bool
}

// Build decodes code and assembles the block for cfg: each instruction's
// descriptor, its layout, and macro-fusion marking. Every descriptor is
// derived afresh by isa.Lookup and owned by the returned block.
func Build(cfg *uarch.Config, code []byte) (*Block, error) {
	insts, err := x86.DecodeBlock(code)
	if err != nil {
		return nil, err
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("bb: empty block")
	}
	b := &Block{Cfg: cfg, Code: code, Insts: make([]Instr, len(insts))}
	off := 0
	for k := range insts {
		desc, err := isa.Lookup(cfg, &insts[k])
		if err != nil {
			return nil, fmt.Errorf("bb: instruction %d (%s): %w", k, insts[k].String(), err)
		}
		b.Insts[k] = Instr{Inst: insts[k], Desc: desc, Off: off, Eff: insts[k].Effects()}
		off += insts[k].Len
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
			// descriptor is the block's own, so it is rewritten in place.
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
	return b, nil
}

// derive precomputes every per-prediction view of the block. It must run
// after macro-fusion marking and is the only writer of the derived fields.
func (b *Block) derive() {
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
	s := ""
	for k := range b.Insts {
		marker := "  "
		if b.Insts[k].FusedWithNext {
			marker = " ┐"
		}
		if b.Insts[k].FusedWithPrev {
			marker = " ┘"
		}
		s += fmt.Sprintf("%3d:%s %s\n", b.Insts[k].Off, marker, b.Insts[k].Inst.String())
	}
	return s
}
