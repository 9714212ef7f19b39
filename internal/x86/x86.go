package x86

import (
	"errors"
	"fmt"
)

// Form describes how an instruction's operands are encoded.
type Form uint8

const (
	FormNone Form = iota
	FormMR        // modrm.rm OP= modrm.reg   (dest is rm)
	FormRM        // modrm.reg OP= modrm.rm   (dest is reg)
	FormMI        // modrm.rm OP= imm
	FormM         // unary: modrm.rm is the only explicit operand
	FormOI        // register embedded in opcode byte, imm source
	FormO         // register embedded in opcode byte (push/pop)
	FormI         // implicit accumulator (or push imm), imm source
	FormD         // relative branch displacement
	FormZO        // no operands
	FormRMI       // modrm.reg = modrm.rm OP imm (imul r,r/m,imm; pshufd)
	FormVRM       // VEX three-operand: reg = vvvv OP rm
	FormVRMI      // VEX three-operand plus imm8 (shufps)
)

func (f Form) String() string {
	names := [...]string{"none", "MR", "RM", "MI", "M", "OI", "O", "I", "D", "ZO", "RMI", "VRM", "VRMI"}
	if int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("form(%d)", uint8(f))
}

// Mem is a memory operand: [base + index*scale + disp].
// A RIP-relative operand has Base == RegRIP.
type Mem struct {
	Base  Reg
	Index Reg
	Scale uint8 // 1, 2, 4, or 8
	Disp  int32
}

// IsIndexed reports whether the operand uses an index register. Indexed
// memory operands trigger µop unlamination on several microarchitectures.
func (m Mem) IsIndexed() bool { return m.Index != RegNone }

// Inst is a decoded instruction.
type Inst struct {
	Op    Op
	Cond  Cond // condition for JCC / CMOVCC / SETCC
	Form  Form
	Width int // main operand width in bits: 8, 16, 32, 64, 128, 256

	// MemWidth is the width of the memory access in bits if the instruction
	// has a memory operand; it differs from Width for MOVZX/MOVSX.
	MemWidth int

	Len       int  // total encoded length in bytes
	OpcodeOff int  // offset of the first nominal-opcode byte (first non-prefix byte)
	HasLCP    bool // has a length-changing prefix (66h changing immediate size)
	VEX       bool // encoded with a VEX prefix
	Lock      bool

	RegOp Reg // the modrm.reg or opcode-embedded register operand (RegNone if absent)
	RM    Reg // the modrm.rm operand when it is a register
	VReg  Reg // the VEX.vvvv operand (RegNone if absent)
	IsMem bool
	Mem   Mem

	Imm    int64 // immediate or branch displacement, sign-extended
	HasImm bool
	ImmLen int  // encoded immediate length in bytes
	UsesCL bool // shift amount comes from CL (D3-group shifts)

	Raw []byte // the encoded bytes (subslice of the decode input)
}

// IsBranch reports whether the instruction is a jump.
func (i *Inst) IsBranch() bool { return i.Op.IsBranch() }

// IsCondBranch reports whether the instruction is a conditional jump.
func (i *Inst) IsCondBranch() bool { return i.Op == JCC }

// Errors returned by the decoder.
var (
	ErrTruncated   = errors.New("x86: truncated instruction")
	ErrTooLong     = errors.New("x86: instruction exceeds 15 bytes")
	ErrUnsupported = errors.New("x86: unsupported encoding")
)

// DecodeError describes a decode failure at a specific offset.
type DecodeError struct {
	Offset int
	Err    error
	Detail string
}

func (e *DecodeError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%v at offset %d: %s", e.Err, e.Offset, e.Detail)
	}
	return fmt.Sprintf("%v at offset %d", e.Err, e.Offset)
}

func (e *DecodeError) Unwrap() error { return e.Err }
