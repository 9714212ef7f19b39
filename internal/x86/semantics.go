package x86

// Effects summarizes an instruction's architectural reads and writes at the
// granularity used by the dependence models.
//
// Memory dependences are intentionally absent: per the modeling assumptions
// shared by all basic-block throughput predictors (paper §3.3), loads and
// stores are assumed not to alias, so only the address registers of memory
// operands matter. Stack-pointer updates of PUSH/POP are assumed to be
// handled by the stack engine and create no dependence
// (docs/ARCHITECTURE.md, "Modeling limits").
type Effects struct {
	// RegReads are data inputs (registers whose value flows into the result).
	RegReads []Reg
	// RegWrites are registers whose value is produced by the instruction.
	RegWrites []Reg
	// AddrReads are registers read for address generation of a memory
	// operand; their consumers are the load/store-address µops.
	AddrReads   []Reg
	ReadsFlags  bool
	WritesFlags bool
	Load        bool // performs a memory read
	Store       bool // performs a memory write
}

// destBehavior classifies how an operation treats its destination operand.
type destBehavior uint8

const (
	destUnknown   destBehavior = iota // no semantics: an Op missing from opSems
	destRW                            // dest is read and written (add, shifts, ...)
	destWriteOnly                     // dest is overwritten (mov, lea, movzx, ...)
	destNone                          // no register result (cmp, test, jcc, store)
)

type opSem struct {
	dest        destBehavior
	readsFlags  bool
	writesFlags bool
}

var opSems = [NumOps]opSem{
	ADD:    {destRW, false, true},
	ADC:    {destRW, true, true},
	SUB:    {destRW, false, true},
	SBB:    {destRW, true, true},
	AND:    {destRW, false, true},
	OR:     {destRW, false, true},
	XOR:    {destRW, false, true},
	CMP:    {destNone, false, true},
	TEST:   {destNone, false, true},
	MOV:    {destWriteOnly, false, false},
	MOVZX:  {destWriteOnly, false, false},
	MOVSX:  {destWriteOnly, false, false},
	LEA:    {destWriteOnly, false, false},
	INC:    {destRW, false, true},
	DEC:    {destRW, false, true},
	NEG:    {destRW, false, true},
	NOT:    {destRW, false, false},
	IMUL:   {destRW, false, true}, // FormRMI overrides dest to write-only
	MUL1:   {destNone, false, true},
	IMUL1:  {destNone, false, true},
	DIV:    {destNone, false, true},
	IDIV:   {destNone, false, true},
	SHL:    {destRW, false, true},
	SHR:    {destRW, false, true},
	SAR:    {destRW, false, true},
	ROL:    {destRW, false, true},
	ROR:    {destRW, false, true},
	POPCNT: {destWriteOnly, false, true},
	CMOVCC: {destRW, true, false},
	SETCC:  {destWriteOnly, true, false},
	PUSH:   {destNone, false, false},
	POP:    {destWriteOnly, false, false},
	NOP:    {destNone, false, false},
	JCC:    {destNone, true, false},
	JMP:    {destNone, false, false},

	MOVAPS: {destWriteOnly, false, false},
	MOVAPD: {destWriteOnly, false, false},
	MOVUPS: {destWriteOnly, false, false},
	MOVUPD: {destWriteOnly, false, false},
	MOVSS:  {destWriteOnly, false, false},
	MOVSD:  {destWriteOnly, false, false},
	MOVDQA: {destWriteOnly, false, false},
	MOVDQU: {destWriteOnly, false, false},

	ADDPS: {destRW, false, false}, ADDPD: {destRW, false, false},
	ADDSS: {destRW, false, false}, ADDSD: {destRW, false, false},
	SUBPS: {destRW, false, false}, SUBPD: {destRW, false, false},
	SUBSS: {destRW, false, false}, SUBSD: {destRW, false, false},
	MULPS: {destRW, false, false}, MULPD: {destRW, false, false},
	MULSS: {destRW, false, false}, MULSD: {destRW, false, false},
	DIVPS: {destRW, false, false}, DIVPD: {destRW, false, false},
	DIVSS: {destRW, false, false}, DIVSD: {destRW, false, false},
	SQRTPS: {destWriteOnly, false, false}, SQRTPD: {destWriteOnly, false, false},
	SQRTSS: {destRW, false, false}, SQRTSD: {destRW, false, false},
	ANDPS: {destRW, false, false}, ANDPD: {destRW, false, false},
	ORPS: {destRW, false, false}, ORPD: {destRW, false, false},
	XORPS: {destRW, false, false}, XORPD: {destRW, false, false},
	SHUFPS: {destRW, false, false}, SHUFPD: {destRW, false, false},

	PXOR: {destRW, false, false}, PAND: {destRW, false, false},
	POR:   {destRW, false, false},
	PADDD: {destRW, false, false}, PADDQ: {destRW, false, false},
	PSUBD: {destRW, false, false}, PMULLD: {destRW, false, false},
	PSHUFD: {destWriteOnly, false, false},

	VFMADD231PS: {destRW, false, false},
	VFMADD231PD: {destRW, false, false},
}

// IsZeroIdiom reports whether the instruction is a recognized zeroing idiom
// (XOR/SUB/PXOR/XORPS/... of a register with itself). Zeroing idioms are
// dependency-breaking and are executed by the renamer on the modeled
// microarchitectures: they consume no execution port and read nothing.
func (i *Inst) IsZeroIdiom() bool {
	if i.IsMem || i.RegOp == RegNone || i.RM == RegNone || i.RegOp != i.RM {
		return false
	}
	switch i.Op {
	case XOR, SUB, PXOR, PSUBD, XORPS, XORPD:
		return i.Form == FormMR || i.Form == FormRM
	}
	return false
}

// IsRegMove reports whether the instruction is a plain register-to-register
// move, the candidate class for move elimination by the renamer.
func (i *Inst) IsRegMove() bool {
	if i.IsMem {
		return false
	}
	switch i.Op {
	case MOV:
		return (i.Form == FormMR || i.Form == FormRM) && i.Width >= 32
	case MOVAPS, MOVAPD, MOVUPS, MOVUPD, MOVDQA, MOVDQU:
		return i.Form == FormMR || i.Form == FormRM
	}
	return false
}

// MaxEffectRegs bounds the registers one instruction's Effects names in
// RegReads, RegWrites and AddrReads together: a caller of AppendEffects that
// reserves this much room per instruction never makes its buffer grow.
const MaxEffectRegs = len(effectRegs{}.reads) + len(effectRegs{}.writes) + len(effectRegs{}.addr)

// effectRegs collects an instruction's registers in fixed arrays while its
// Effects are computed.
type effectRegs struct {
	reads      [3]Reg
	writes     [2]Reg
	addr       [4]Reg
	nr, nw, na int
}

func (e *effectRegs) read(r Reg) {
	if r != RegNone && r != RegRIP {
		e.reads[e.nr] = r
		e.nr++
	}
}

func (e *effectRegs) write(r Reg) {
	if r != RegNone {
		e.writes[e.nw] = r
		e.nw++
	}
}

// address records the address registers of memory operand m.
func (e *effectRegs) address(m Mem) {
	if m.Base != RegNone && m.Base != RegRIP {
		e.addr[e.na] = m.Base
		e.na++
	}
	if m.Index != RegNone {
		e.addr[e.na] = m.Index
		e.na++
	}
}

// Effects computes the architectural reads and writes of the instruction.
func (i *Inst) Effects() Effects {
	eff, _ := i.AppendEffects(nil)
	return eff
}

// AppendEffects computes the architectural reads and writes of the
// instruction, appending their registers to regs: RegReads, RegWrites and
// AddrReads are capacity-limited subslices of the returned buffer (nil when
// empty), so one buffer with MaxEffectRegs of room per instruction holds a
// whole block's effects.
func (i *Inst) AppendEffects(regs []Reg) (Effects, []Reg) {
	var e effectRegs
	eff := i.effects(&e)
	eff.RegReads, regs = carveRegs(regs, e.reads[:e.nr])
	eff.RegWrites, regs = carveRegs(regs, e.writes[:e.nw])
	eff.AddrReads, regs = carveRegs(regs, e.addr[:e.na])
	return eff, regs
}

// carveRegs appends rs to regs and returns the appended part, capacity-
// limited so a later append to it cannot overwrite its neighbours.
func carveRegs(regs, rs []Reg) (carved, out []Reg) {
	if len(rs) == 0 {
		return nil, regs
	}
	lo := len(regs)
	regs = append(regs, rs...)
	return regs[lo:len(regs):len(regs)], regs
}

// effects computes the instruction's flags and memory accesses and records
// its registers in e.
func (i *Inst) effects(e *effectRegs) Effects {
	var eff Effects
	if int(i.Op) >= len(opSems) {
		return eff
	}
	sem := opSems[i.Op]
	if sem.dest == destUnknown {
		return eff
	}
	eff.ReadsFlags = sem.readsFlags
	eff.WritesFlags = sem.writesFlags

	if i.Op == NOP {
		return eff
	}

	// Zero idioms read nothing and break dependences.
	if i.IsZeroIdiom() {
		e.write(i.RegOp)
		eff.WritesFlags = sem.writesFlags // xor still writes flags
		return eff
	}

	memRead := func() {
		eff.Load = true
		e.address(i.Mem)
	}
	memWrite := func() {
		eff.Store = true
		e.address(i.Mem)
	}

	dest := sem.dest
	if i.Op == IMUL && (i.Form == FormRMI || i.Form == FormVRMI) {
		dest = destWriteOnly // imul r, r/m, imm does not read the destination
	}

	switch i.Form {
	case FormMR:
		// rm OP= reg (or cmp/test: read both).
		e.read(i.RegOp)
		if i.IsMem {
			switch dest {
			case destRW:
				memRead()
				memWrite()
			case destWriteOnly:
				memWrite()
			case destNone:
				memRead()
			}
		} else {
			if dest == destRW || dest == destNone {
				e.read(i.RM)
			}
			if dest != destNone {
				e.write(i.RM)
			}
		}

	case FormRM, FormRMI:
		// reg OP= rm.
		if i.IsMem {
			if i.Op != LEA {
				memRead()
			} else {
				// LEA computes the address but performs no access.
				e.read(i.Mem.Base)
				e.read(i.Mem.Index)
			}
		} else {
			e.read(i.RM)
		}
		if dest == destRW {
			e.read(i.RegOp)
		}
		if dest != destNone {
			e.write(i.RegOp)
		}

	case FormVRM, FormVRMI:
		// reg = vvvv OP rm; FMA additionally reads the destination.
		e.read(i.VReg)
		if i.IsMem {
			memRead()
		} else {
			e.read(i.RM)
		}
		if dest == destRW {
			e.read(i.RegOp)
		}
		e.write(i.RegOp)

	case FormMI, FormM:
		switch i.Op {
		case PUSH:
			if i.IsMem {
				memRead()
				// push m: load then store to the stack.
				eff.Store = true
			} else {
				e.read(i.RM)
				eff.Store = true
			}
		case POP:
			eff.Load = true
			if i.IsMem {
				memWrite()
			} else {
				e.write(i.RM)
			}
		case SETCC:
			if i.IsMem {
				memWrite()
			} else {
				e.write(i.RM)
			}
		case MUL1, IMUL1:
			e.read(RAX)
			if i.IsMem {
				memRead()
			} else {
				e.read(i.RM)
			}
			e.write(RAX)
			e.write(RDX)
		case DIV, IDIV:
			e.read(RAX)
			e.read(RDX)
			if i.IsMem {
				memRead()
			} else {
				e.read(i.RM)
			}
			e.write(RAX)
			e.write(RDX)
		case MOV: // mov r/m, imm
			if i.IsMem {
				memWrite()
			} else {
				e.write(i.RM)
			}
		default:
			// Unary RMW or rm-OP-imm (inc, not, shifts, add rm: destRW).
			if i.UsesCL {
				e.read(RCX)
			}
			if i.IsMem {
				switch dest {
				case destRW:
					memRead()
					memWrite()
				case destWriteOnly:
					memWrite()
				case destNone:
					memRead()
				}
			} else {
				if dest == destRW || dest == destNone {
					e.read(i.RM)
				}
				if dest != destNone {
					e.write(i.RM)
				}
			}
		}

	case FormOI:
		e.write(i.RegOp)

	case FormO:
		switch i.Op {
		case PUSH:
			e.read(i.RegOp)
			eff.Store = true
		case POP:
			eff.Load = true
			e.write(i.RegOp)
		}

	case FormI:
		switch i.Op {
		case PUSH:
			eff.Store = true
		default: // accumulator OP imm
			if dest == destRW || dest == destNone {
				e.read(i.RegOp)
			}
			if dest != destNone {
				e.write(i.RegOp)
			}
		}

	case FormD, FormZO:
		// Branch or nop: flags handled above.
	}

	return eff
}
