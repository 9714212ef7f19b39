package x86

// Decode decodes the first instruction in code. The returned Inst's Raw field
// aliases code.
func Decode(code []byte) (Inst, error) {
	var inst Inst
	err := DecodeAt(&inst, code, 0)
	return inst, err
}

// DecodeAt decodes the instruction at byte offset off of the block code into
// inst, overwriting it. inst's Raw field aliases code, and a decode error
// reports its offset within the block.
func DecodeAt(inst *Inst, code []byte, off int) error {
	*inst = Inst{}
	d := decoder{code: code[off:], base: off}
	return d.decode(inst)
}

// MinAvgInstLen sizes a block's instruction array before decoding (in
// DecodeBlock and in bb.BuildInto): real code averages about four bytes per
// instruction, and few blocks average under three.
const MinAvgInstLen = 3

// DecodeBlock decodes all instructions in code. It fails if code does not end
// exactly at an instruction boundary. It allocates once for blocks whose
// instructions average at least MinAvgInstLen bytes.
func DecodeBlock(code []byte) ([]Inst, error) {
	insts := make([]Inst, 0, len(code)/MinAvgInstLen+1)
	for off := 0; off < len(code); off += insts[len(insts)-1].Len {
		insts = append(insts, Inst{})
		if err := DecodeAt(&insts[len(insts)-1], code, off); err != nil {
			return nil, err
		}
	}
	return insts, nil
}

type decoder struct {
	code []byte
	base int // offset of code[0] in the enclosing block, for error messages
	pos  int

	has66, hasF2, hasF3 bool
	lock                bool
	rex                 byte
	hasREX              bool

	vex     bool
	vexMap  byte // 1 = 0F, 2 = 0F38, 3 = 0F3A
	vexPP   byte // 0 = none, 1 = 66, 2 = F3, 3 = F2
	vexL    bool
	vexW    bool
	vexR    bool // inverted-and-decoded: true means extension bit set
	vexX    bool
	vexB    bool
	vexVVVV byte
}

func (d *decoder) err(base error, detail string) error {
	return &DecodeError{Offset: d.base + d.pos, Err: base, Detail: detail}
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, d.err(ErrTruncated, "")
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) peek() (byte, bool) {
	if d.pos >= len(d.code) {
		return 0, false
	}
	return d.code[d.pos], true
}

// decode decodes the instruction at the start of d.code into inst, which
// must be zero.
func (d *decoder) decode(inst *Inst) error {

	// Legacy prefixes.
prefixLoop:
	for {
		b, ok := d.peek()
		if !ok {
			return d.err(ErrTruncated, "prefixes")
		}
		switch b {
		case 0x66:
			d.has66 = true
		case 0x67:
			return d.err(ErrUnsupported, "address-size prefix (67)")
		case 0xF0:
			d.lock = true
		case 0xF2:
			d.hasF2 = true
		case 0xF3:
			d.hasF3 = true
		case 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65:
			// Segment overrides: accepted and ignored.
		default:
			break prefixLoop
		}
		d.pos++
		if d.pos > 14 {
			return d.err(ErrTooLong, "")
		}
	}

	// REX prefix (64-bit mode), must immediately precede the opcode.
	if b, ok := d.peek(); ok && b >= 0x40 && b <= 0x4F {
		d.rex = b
		d.hasREX = true
		d.pos++
	}

	// VEX prefix.
	if b, ok := d.peek(); ok && (b == 0xC4 || b == 0xC5) && !d.hasREX {
		d.pos++
		if err := d.parseVEX(b); err != nil {
			return err
		}
	}

	inst.OpcodeOff = d.pos
	inst.Lock = d.lock
	inst.VEX = d.vex

	ent, opByte, err := d.lookupOpcode()
	if err != nil {
		return err
	}

	// ModRM-bearing forms.
	needModRM := false
	switch ent.form {
	case FormMR, FormRM, FormMI, FormM, FormRMI, FormVRM, FormVRMI:
		needModRM = true
	}

	var modrm byte
	if needModRM || ent.group >= 0 {
		modrm, err = d.byte()
		if err != nil {
			return err
		}
	}

	// Group resolution: the reg field of ModRM selects the operation; the
	// opcode-level slot supplies form/width, and the immediate kind comes
	// from the opcode-level slot unless the member defines one (F6/F7 TEST).
	if ent.group >= 0 {
		member := groups[ent.group][(modrm>>3)&7]
		if !member.valid {
			return d.err(ErrUnsupported,
				"group opcode extension /"+string(rune('0'+(modrm>>3)&7)))
		}
		imm := ent.imm
		if imm == immNone {
			imm = member.imm
		}
		form := ent.form
		width := ent.width
		ent = member
		ent.form = form
		ent.width = width
		ent.imm = imm
	}

	inst.Op = ent.op
	inst.Form = ent.form
	if ent.cond {
		inst.Cond = Cond(opByte & 0x0F)
	}

	// FMA data type is selected by VEX.W.
	if inst.Op == VFMADD231PS && d.vexW {
		inst.Op = VFMADD231PD
	}
	if inst.Op.IsVector() && !inst.Op.IsBranch() {
		// VEX three-operand promotion for arithmetic/logic entries.
		if d.vex && ent.vex3 {
			switch inst.Form {
			case FormRM:
				inst.Form = FormVRM
			case FormRMI:
				inst.Form = FormVRMI
			}
		}
	}
	if inst.Form == FormVRM || inst.Form == FormVRMI {
		if !d.vex {
			return d.err(ErrUnsupported, "VEX-only form without VEX prefix")
		}
	}

	// Operand width.
	inst.Width = d.resolveWidth(ent.width)
	inst.MemWidth = inst.Width
	if ent.memWidth != 0 {
		inst.MemWidth = ent.memWidth
	}

	// Operands from ModRM / opcode byte.
	vecRegs := inst.Op.IsVector()
	if needModRM {
		if err := d.parseModRM(inst, modrm, vecRegs); err != nil {
			return err
		}
	}
	switch inst.Form {
	case FormO, FormOI:
		n := int(opByte&7) | int(d.rexBit(0))<<3
		inst.RegOp = GPR(n)
	case FormI:
		if inst.Op != PUSH {
			inst.RegOp = RAX
		}
	}
	if inst.Form == FormVRM || inst.Form == FormVRMI {
		if vecRegs {
			inst.VReg = Vec(int(d.vexVVVV))
		} else {
			inst.VReg = GPR(int(d.vexVVVV))
		}
	}

	// NOP carries no architectural operands even when encoded with ModRM.
	if inst.Op == NOP {
		inst.RegOp = RegNone
		inst.RM = RegNone
	}

	// Shift-instruction special cases: D1 shifts by 1, D3 shifts by CL.
	if !d.vex && (opByte == 0xD1) && isShift(inst.Op) {
		inst.HasImm = true
		inst.Imm = 1
	}
	if !d.vex && (opByte == 0xD3) && isShift(inst.Op) {
		inst.UsesCL = true
	}

	// Immediate.
	immLen := d.immLength(ent.imm, inst.Width)
	if immLen > 0 {
		v, err := d.readImm(immLen)
		if err != nil {
			return err
		}
		inst.Imm = v
		inst.HasImm = true
		inst.ImmLen = immLen
	}

	// A 66h prefix that changes the length of the immediate is a
	// length-changing prefix (LCP); the predecoder pays a 3-cycle penalty.
	if d.has66 && !d.vex && immLen == 2 && (ent.imm == immZ || ent.imm == immV) {
		inst.HasLCP = true
	}

	if d.pos > 15 {
		return d.err(ErrTooLong, "")
	}
	inst.Len = d.pos
	inst.Raw = d.code[:d.pos]
	return nil
}

func isShift(op Op) bool {
	switch op {
	case SHL, SHR, SAR, ROL, ROR:
		return true
	}
	return false
}

func (d *decoder) parseVEX(lead byte) error {
	d.vex = true
	if d.has66 || d.hasF2 || d.hasF3 || d.lock {
		return d.err(ErrUnsupported, "legacy prefix before VEX")
	}
	switch lead {
	case 0xC5:
		b, err := d.byte()
		if err != nil {
			return err
		}
		d.vexR = b&0x80 == 0
		d.vexVVVV = ^(b >> 3) & 0xF
		d.vexL = b&0x04 != 0
		d.vexPP = b & 3
		d.vexMap = 1
	case 0xC4:
		b1, err := d.byte()
		if err != nil {
			return err
		}
		b2, err := d.byte()
		if err != nil {
			return err
		}
		d.vexR = b1&0x80 == 0
		d.vexX = b1&0x40 == 0
		d.vexB = b1&0x20 == 0
		d.vexMap = b1 & 0x1F
		d.vexW = b2&0x80 != 0
		d.vexVVVV = ^(b2 >> 3) & 0xF
		d.vexL = b2&0x04 != 0
		d.vexPP = b2 & 3
	}
	return nil
}

// rexBit returns the REX/VEX extension bit: which = 0 for B (rm/base/opcode
// register), 1 for X (index), 2 for R (modrm.reg).
func (d *decoder) rexBit(which uint) byte {
	if d.vex {
		switch which {
		case 0:
			if d.vexB {
				return 1
			}
		case 1:
			if d.vexX {
				return 1
			}
		case 2:
			if d.vexR {
				return 1
			}
		}
		return 0
	}
	return (d.rex >> which) & 1
}

func (d *decoder) lookupOpcode() (entry, byte, error) {
	if d.vex {
		var pe pfxEntry
		var opByte byte
		b, err := d.byte()
		if err != nil {
			return entry{}, 0, err
		}
		opByte = b
		switch d.vexMap {
		case 1:
			pe = twoByte[b]
		case 2:
			var ok bool
			pe, ok = threeByte38[b]
			if !ok {
				return entry{}, 0, d.err(ErrUnsupported, "VEX 0F38 opcode")
			}
		default:
			return entry{}, 0, d.err(ErrUnsupported, "VEX map")
		}
		var ent entry
		switch d.vexPP {
		case 0:
			ent = pe.np
		case 1:
			ent = pe.p66
		case 2:
			ent = pe.pF3
		case 3:
			ent = pe.pF2
		}
		if !ent.valid {
			return entry{}, 0, d.err(ErrUnsupported, "VEX opcode")
		}
		return ent, opByte, nil
	}

	b, err := d.byte()
	if err != nil {
		return entry{}, 0, err
	}
	if b != 0x0F {
		ent := oneByte[b]
		if !ent.valid {
			return entry{}, 0, d.err(ErrUnsupported, "one-byte opcode")
		}
		return ent, b, nil
	}

	b2, err := d.byte()
	if err != nil {
		return entry{}, 0, err
	}
	if b2 == 0x38 {
		b3, err := d.byte()
		if err != nil {
			return entry{}, 0, err
		}
		pe, ok := threeByte38[b3]
		if !ok {
			return entry{}, 0, d.err(ErrUnsupported, "0F38 opcode")
		}
		ent := d.selectByPrefix(pe)
		if !ent.valid {
			return entry{}, 0, d.err(ErrUnsupported, "0F38 opcode prefix combination")
		}
		if ent.form == FormVRM || ent.form == FormVRMI {
			return entry{}, 0, d.err(ErrUnsupported, "VEX-only instruction")
		}
		return ent, b3, nil
	}
	if b2 == 0x3A {
		return entry{}, 0, d.err(ErrUnsupported, "0F3A opcode")
	}
	pe := twoByte[b2]
	ent := d.selectByPrefix(pe)
	if !ent.valid {
		return entry{}, 0, d.err(ErrUnsupported, "0F opcode")
	}
	if ent.form == FormVRM || ent.form == FormVRMI {
		return entry{}, 0, d.err(ErrUnsupported, "VEX-only instruction")
	}
	return ent, b2, nil
}

// selectByPrefix picks the entry variant according to the mandatory prefix,
// with F2/F3 taking priority over 66 (as in the SDM).
func (d *decoder) selectByPrefix(pe pfxEntry) entry {
	switch {
	case d.hasF2:
		return pe.pF2
	case d.hasF3:
		return pe.pF3
	case d.has66:
		return pe.p66
	default:
		return pe.np
	}
}

func (d *decoder) resolveWidth(wk widthKind) int {
	switch wk {
	case w8:
		return 8
	case w64:
		return 64
	case wX:
		if d.vexL {
			return 256
		}
		return 128
	default: // wV
		if d.vex {
			if d.vexW {
				return 64
			}
			return 32
		}
		if d.rex&0x08 != 0 {
			return 64
		}
		if d.has66 {
			return 16
		}
		return 32
	}
}

func (d *decoder) parseModRM(inst *Inst, modrm byte, vecRegs bool) error {
	mod := modrm >> 6
	regBits := int((modrm>>3)&7) | int(d.rexBit(2))<<3
	rmBits := int(modrm&7) | int(d.rexBit(0))<<3

	mkReg := func(n int) Reg {
		if vecRegs {
			return Vec(n)
		}
		return GPR(n)
	}

	switch inst.Form {
	case FormMR, FormRM, FormRMI, FormVRM, FormVRMI:
		inst.RegOp = mkReg(regBits)
	}

	if mod == 3 {
		inst.RM = mkReg(rmBits)
		if inst.Op == LEA {
			return d.err(ErrUnsupported, "LEA with register operand")
		}
		return nil
	}

	inst.IsMem = true
	m := &inst.Mem

	if modrm&7 == 4 {
		// SIB byte.
		sib, err := d.byte()
		if err != nil {
			return err
		}
		m.Scale = 1 << (sib >> 6)
		idx := int((sib>>3)&7) | int(d.rexBit(1))<<3
		if idx != 4 { // encoding 4 (RSP) means "no index"
			m.Index = GPR(idx)
		}
		base := int(sib&7) | int(d.rexBit(0))<<3
		if sib&7 == 5 && mod == 0 {
			// No base, disp32.
			disp, err := d.readImm(4)
			if err != nil {
				return err
			}
			m.Disp = int32(disp)
			return nil
		}
		m.Base = GPR(base)
	} else if mod == 0 && modrm&7 == 5 {
		// RIP-relative with disp32.
		m.Base = RegRIP
		disp, err := d.readImm(4)
		if err != nil {
			return err
		}
		m.Disp = int32(disp)
		return nil
	} else {
		m.Base = GPR(rmBits)
	}

	switch mod {
	case 1:
		disp, err := d.readImm(1)
		if err != nil {
			return err
		}
		m.Disp = int32(disp)
	case 2:
		disp, err := d.readImm(4)
		if err != nil {
			return err
		}
		m.Disp = int32(disp)
	}
	return nil
}

func (d *decoder) immLength(kind immKind, width int) int {
	switch kind {
	case imm8:
		return 1
	case immZ:
		if width == 16 {
			return 2
		}
		return 4
	case immV:
		switch width {
		case 16:
			return 2
		case 64:
			return 8
		default:
			return 4
		}
	}
	return 0
}

func (d *decoder) readImm(n int) (int64, error) {
	if d.pos+n > len(d.code) {
		return 0, d.err(ErrTruncated, "immediate")
	}
	var v uint64
	for k := 0; k < n; k++ {
		v |= uint64(d.code[d.pos+k]) << (8 * k)
	}
	d.pos += n
	// Sign-extend.
	shift := uint(64 - 8*n)
	res := int64(v<<shift) >> shift
	return res, nil
}
