package isa

import (
	"facile/internal/uarch"
	"facile/internal/x86"
)

// computeUops appends the compute (non-memory) µops of the instruction to
// uops and returns the extended buffer with the data-source-to-result
// latency. Memory µops are added by Lookup.
func computeUops(cfg *uarch.Config, inst *x86.Inst, uops []Uop) ([]Uop, int, error) {
	mk := func(role uarch.Role, recTP int) Uop {
		return Uop{Role: role, Ports: cfg.PortsFor(role), RecTP: recTP}
	}
	one := func(role uarch.Role, lat int) ([]Uop, int, error) {
		return append(uops, mk(role, 1)), lat, nil
	}

	switch inst.Op {
	case x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST,
		x86.INC, x86.DEC, x86.NEG, x86.NOT:
		return one(uarch.RoleALU, 1)

	case x86.ADC, x86.SBB:
		// Two µops before Broadwell, one from Broadwell on.
		if cfg.Gen < uarch.GenBDW {
			return append(uops, mk(uarch.RoleALU, 1), mk(uarch.RoleALU, 1)), 2, nil
		}
		return one(uarch.RoleALU, 1)

	case x86.MOV:
		// Stores and loads have no compute µop; reg<-imm is one ALU µop.
		// (reg<-reg is handled by the move-elimination path in Lookup.)
		if inst.IsMem || (inst.Form == x86.FormRM && inst.IsMem) {
			return uops, 0, nil
		}
		if inst.HasImm {
			return one(uarch.RoleALU, 1)
		}
		return one(uarch.RoleALU, 1)

	case x86.MOVZX, x86.MOVSX:
		// From memory these are plain (extending) loads.
		if inst.IsMem {
			return uops, 0, nil
		}
		return one(uarch.RoleALU, 1)

	case x86.LEA:
		// A three-component LEA (base + index + displacement) is slow.
		comps := 0
		if inst.Mem.Base != x86.RegNone {
			comps++
		}
		if inst.Mem.Index != x86.RegNone {
			comps++
		}
		if inst.Mem.Disp != 0 {
			comps++
		}
		if comps >= 3 {
			return one(uarch.RoleSlowLEA, 3)
		}
		return one(uarch.RoleLEA, 1)

	case x86.IMUL: // two- and three-operand forms
		return one(uarch.RoleMul, 3)

	case x86.MUL1, x86.IMUL1:
		return append(uops, mk(uarch.RoleMul, 1), mk(uarch.RoleALU, 1)), 4, nil

	case x86.DIV, x86.IDIV:
		extra := 0
		if inst.Op == x86.IDIV {
			extra = 2
		}
		if inst.Width == 64 {
			return append(uops,
				mk(uarch.RoleDiv, 21),
				mk(uarch.RoleALU, 1), mk(uarch.RoleALU, 1), mk(uarch.RoleALU, 1),
			), 36 + extra, nil
		}
		return append(uops,
			mk(uarch.RoleDiv, 6),
			mk(uarch.RoleALU, 1), mk(uarch.RoleALU, 1),
		), 23 + extra, nil

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		if inst.UsesCL {
			// Variable-count shifts need flag merging.
			return append(uops, mk(uarch.RoleShift, 1), mk(uarch.RoleShift, 1)), 2, nil
		}
		return one(uarch.RoleShift, 1)

	case x86.POPCNT:
		return one(uarch.RoleMul, 3)

	case x86.CMOVCC:
		if cfg.Gen >= uarch.GenSKL {
			return one(uarch.RoleShift, 1)
		}
		return append(uops, mk(uarch.RoleALU, 1), mk(uarch.RoleALU, 1)), 2, nil

	case x86.SETCC:
		return one(uarch.RoleShift, 1)

	case x86.JCC, x86.JMP:
		return one(uarch.RoleBranch, 1)

	case x86.PUSH, x86.POP:
		// Pure memory operations (the stack engine handles RSP).
		return uops, 0, nil

	// Vector moves from/to memory: pure load/store.
	case x86.MOVAPS, x86.MOVAPD, x86.MOVUPS, x86.MOVUPD,
		x86.MOVSS, x86.MOVSD, x86.MOVDQA, x86.MOVDQU:
		if inst.IsMem {
			return uops, 0, nil
		}
		// Non-eliminated reg-reg move (handled earlier when eliminable).
		return one(uarch.RoleVecMove, 1)

	case x86.ADDPS, x86.ADDPD, x86.ADDSS, x86.ADDSD,
		x86.SUBPS, x86.SUBPD, x86.SUBSS, x86.SUBSD:
		return one(uarch.RoleVecFPAdd, cfg.FPAddLat)

	case x86.MULPS, x86.MULPD, x86.MULSS, x86.MULSD:
		return one(uarch.RoleVecFPMul, cfg.FPMulLat)

	case x86.DIVPS, x86.DIVSS:
		if cfg.Gen >= uarch.GenSKL {
			return append(uops, mk(uarch.RoleVecDiv, 3)), 11, nil
		}
		return append(uops, mk(uarch.RoleVecDiv, 7)), 13, nil

	case x86.DIVPD, x86.DIVSD:
		if cfg.Gen >= uarch.GenSKL {
			return append(uops, mk(uarch.RoleVecDiv, 4)), 14, nil
		}
		return append(uops, mk(uarch.RoleVecDiv, 14)), 20, nil

	case x86.SQRTPS, x86.SQRTSS:
		if cfg.Gen >= uarch.GenSKL {
			return append(uops, mk(uarch.RoleVecDiv, 3)), 12, nil
		}
		return append(uops, mk(uarch.RoleVecDiv, 7)), 14, nil

	case x86.SQRTPD, x86.SQRTSD:
		if cfg.Gen >= uarch.GenSKL {
			return append(uops, mk(uarch.RoleVecDiv, 4)), 16, nil
		}
		return append(uops, mk(uarch.RoleVecDiv, 14)), 21, nil

	case x86.ANDPS, x86.ANDPD, x86.ORPS, x86.ORPD, x86.XORPS, x86.XORPD,
		x86.PXOR, x86.PAND, x86.POR, x86.PADDD, x86.PADDQ, x86.PSUBD:
		return one(uarch.RoleVecALU, 1)

	case x86.PMULLD:
		if cfg.Gen >= uarch.GenHSW {
			return append(uops, mk(uarch.RoleVecFPMul, 1), mk(uarch.RoleVecFPMul, 1)), 10, nil
		}
		return one(uarch.RoleVecFPMul, 5)

	case x86.SHUFPS, x86.SHUFPD, x86.PSHUFD:
		return one(uarch.RoleVecShuffle, 1)

	case x86.VFMADD231PS, x86.VFMADD231PD:
		if cfg.PortsFor(uarch.RoleVecFMA) == 0 {
			return uops, 0, &ErrUnsupported{Op: inst.Op, Arch: cfg.Name}
		}
		return one(uarch.RoleVecFMA, cfg.FMALat)
	}

	return uops, 0, &ErrUnsupported{Op: inst.Op, Arch: cfg.Name}
}
