package isa

import (
	"facile/internal/uarch"
	"facile/internal/x86"
)

// macroFusibleFirst reports whether inst can be the first instruction of a
// macro-fused pair on cfg, independent of which conditional jump follows.
func macroFusibleFirst(cfg *uarch.Config, inst *x86.Inst, eff *x86.Effects) bool {
	if !cfg.MacroFusion {
		return false
	}
	switch inst.Op {
	case x86.CMP, x86.TEST, x86.AND, x86.ADD, x86.SUB, x86.INC, x86.DEC:
	default:
		return false
	}
	if inst.IsMem {
		// A memory operand blocks fusion on older microarchitectures, and
		// memory + immediate never fuses.
		if !cfg.FuseWithMem || inst.HasImm {
			return false
		}
		// Instructions that write memory (RMW forms) do not fuse.
		if eff.Store {
			return false
		}
	}
	return true
}

// fusesWithCmp reports whether a CMP/ADD/SUB-class instruction fuses with a
// jump on condition c: the carry- and zero/signed-flag conditions fuse; the
// overflow, sign, and parity conditions do not (Agner Fog's tables).
func fusesWithCmp(c x86.Cond) bool {
	switch c {
	case x86.CondB, x86.CondAE, x86.CondE, x86.CondNE, x86.CondBE, x86.CondA,
		x86.CondL, x86.CondGE, x86.CondLE, x86.CondG:
		return true
	}
	return false
}

// CanMacroFuse reports whether first (with descriptor firstDesc) macro-fuses
// with the immediately following conditional jump jcc on cfg.
func CanMacroFuse(cfg *uarch.Config, firstDesc *Desc, first, jcc *x86.Inst) bool {
	if !firstDesc.MacroFusible || jcc.Op != x86.JCC {
		return false
	}
	switch first.Op {
	case x86.TEST, x86.AND:
		return true
	case x86.CMP, x86.ADD, x86.SUB:
		return fusesWithCmp(jcc.Cond)
	case x86.INC, x86.DEC:
		// INC/DEC do not write CF, so carry-reading conditions cannot fuse.
		return !jcc.Cond.UsesCarry()
	}
	return false
}
