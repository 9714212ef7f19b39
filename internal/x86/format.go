package x86

import "strconv"

// Mnemonic returns the instruction mnemonic including any condition suffix.
func (i *Inst) Mnemonic() string { return string(i.appendMnemonic(nil)) }

func (i *Inst) appendMnemonic(dst []byte) []byte {
	switch i.Op {
	case JCC:
		return append(append(dst, 'j'), i.Cond.String()...)
	case CMOVCC:
		return append(append(dst, "cmov"...), i.Cond.String()...)
	case SETCC:
		return append(append(dst, "set"...), i.Cond.String()...)
	}
	name := i.Op.String()
	if i.VEX && name[0] != 'v' {
		dst = append(dst, 'v')
	}
	return append(dst, name...)
}

// String renders the instruction in Intel-like syntax (destination first),
// for debugging and reports.
func (i *Inst) String() string { return string(i.AppendText(nil)) }

// AppendText appends the String form of the instruction to dst and returns
// the extended buffer. It allocates only when dst must grow.
func (i *Inst) AppendText(dst []byte) []byte {
	dst = i.appendMnemonic(dst)
	switch i.Form {
	case FormMR:
		dst = i.appendRM(append(dst, ' '))
		dst = i.appendReg(append(dst, ", "...), i.RegOp)
	case FormRM, FormRMI:
		dst = i.appendReg(append(dst, ' '), i.RegOp)
		dst = i.appendRM(append(dst, ", "...))
		if i.Form == FormRMI {
			dst = appendImm(dst, i.Imm)
		}
	case FormVRM, FormVRMI:
		dst = i.appendReg(append(dst, ' '), i.RegOp)
		dst = i.appendReg(append(dst, ", "...), i.VReg)
		dst = i.appendRM(append(dst, ", "...))
		if i.Form == FormVRMI {
			dst = appendImm(dst, i.Imm)
		}
	case FormMI, FormM:
		dst = i.appendRM(append(dst, ' '))
		if i.Form == FormM && i.UsesCL {
			dst = append(dst, ", cl"...)
		} else if i.HasImm {
			dst = appendImm(dst, i.Imm)
		}
	case FormOI:
		dst = appendImm(i.appendReg(append(dst, ' '), i.RegOp), i.Imm)
	case FormO:
		dst = i.appendReg(append(dst, ' '), i.RegOp)
	case FormI:
		if i.RegOp != RegNone {
			dst = appendImm(i.appendReg(append(dst, ' '), i.RegOp), i.Imm)
		} else {
			dst = strconv.AppendInt(append(dst, ' '), i.Imm, 10)
		}
	case FormD:
		dst = append(dst, " ."...)
		if i.Imm >= 0 {
			dst = append(dst, '+')
		}
		dst = strconv.AppendInt(dst, i.Imm, 10)
	}
	return dst
}

// appendImm appends a ", imm" operand in decimal.
func appendImm(dst []byte, imm int64) []byte {
	return strconv.AppendInt(append(dst, ", "...), imm, 10)
}

// appendRM appends the modrm.rm operand: the memory operand or the register.
func (i *Inst) appendRM(dst []byte) []byte {
	if i.IsMem {
		return i.Mem.appendText(dst)
	}
	return i.appendReg(dst, i.RM)
}

// appendReg appends a register operand named for the instruction's width:
// GPRs by their sized name, vector registers as ymm at 256 bits.
func (i *Inst) appendReg(dst []byte, r Reg) []byte {
	switch {
	case r.IsGPR():
		return appendSizedGPR(dst, r, i.Width)
	case r.IsVec() && i.Width == 256:
		return append(append(dst, 'y'), r.String()[1:]...)
	}
	return append(dst, r.String()...)
}

func (m Mem) String() string { return string(m.appendText(nil)) }

// appendText appends the operand as [base+index*scale±disp], the
// displacement in hex and present when nonzero or the only component.
func (m Mem) appendText(dst []byte) []byte {
	dst = append(dst, '[')
	if m.Base != RegNone {
		dst = append(dst, m.Base.String()...)
	}
	if m.Index != RegNone {
		dst = append(append(dst, '+'), m.Index.String()...)
		dst = strconv.AppendUint(append(dst, '*'), uint64(m.Scale), 10)
	}
	if m.Disp != 0 || (m.Base == RegNone && m.Index == RegNone) {
		disp := int64(m.Disp)
		if disp < 0 {
			dst = append(dst, '-')
			disp = -disp
		} else {
			dst = append(dst, '+')
		}
		dst = strconv.AppendUint(append(dst, "0x"...), uint64(disp), 16)
	}
	return append(dst, ']')
}

// BlockString renders a sequence of instructions, one per line.
func BlockString(insts []Inst) string {
	var buf []byte
	for idx := range insts {
		buf = append(insts[idx].AppendText(buf), '\n')
	}
	return string(buf)
}
