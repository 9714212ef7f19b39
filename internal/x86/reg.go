package x86

import "fmt"

// Reg identifies an architectural register at dependence granularity.
//
// Sub-registers (AL, AX, EAX, ...) are canonicalized to their full 64-bit
// register: the dependence model treats a write to any part of a register as
// producing the whole register, and a read of any part as consuming it.
// Partial-register stalls are not modeled (see docs/ARCHITECTURE.md,
// "Modeling limits").
type Reg uint8

const (
	RegNone Reg = iota

	// General-purpose registers, in hardware encoding order (0-15).
	RAX
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// Vector registers (XMM/YMM are not distinguished; the dependence
	// granularity is the full vector register), encoding order 0-15.
	X0
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15

	// RegFlags stands for the RFLAGS status flags as a single value.
	RegFlags
	// RegRIP is used as the base of RIP-relative memory operands.
	RegRIP

	NumRegs
)

// GPR returns the general-purpose register with hardware encoding n (0-15).
func GPR(n int) Reg {
	if n < 0 || n > 15 {
		panic(fmt.Sprintf("x86: GPR encoding out of range: %d", n))
	}
	return RAX + Reg(n)
}

// Vec returns the vector register with hardware encoding n (0-15).
func Vec(n int) Reg {
	if n < 0 || n > 15 {
		panic(fmt.Sprintf("x86: vector register encoding out of range: %d", n))
	}
	return X0 + Reg(n)
}

// IsGPR reports whether r is a general-purpose register.
func (r Reg) IsGPR() bool { return r >= RAX && r <= R15 }

// IsVec reports whether r is a vector register.
func (r Reg) IsVec() bool { return r >= X0 && r <= X15 }

// Enc returns the 4-bit hardware encoding of a GPR or vector register.
func (r Reg) Enc() int {
	switch {
	case r.IsGPR():
		return int(r - RAX)
	case r.IsVec():
		return int(r - X0)
	default:
		panic(fmt.Sprintf("x86: Enc on non-encodable register %v", r))
	}
}

var regNames = [NumRegs]string{
	RegNone: "none",
	RAX:     "rax", RCX: "rcx", RDX: "rdx", RBX: "rbx",
	RSP: "rsp", RBP: "rbp", RSI: "rsi", RDI: "rdi",
	R8: "r8", R9: "r9", R10: "r10", R11: "r11",
	R12: "r12", R13: "r13", R14: "r14", R15: "r15",
	X0: "xmm0", X1: "xmm1", X2: "xmm2", X3: "xmm3",
	X4: "xmm4", X5: "xmm5", X6: "xmm6", X7: "xmm7",
	X8: "xmm8", X9: "xmm9", X10: "xmm10", X11: "xmm11",
	X12: "xmm12", X13: "xmm13", X14: "xmm14", X15: "xmm15",
	RegFlags: "flags", RegRIP: "rip",
}

func (r Reg) String() string {
	if int(r) < len(regNames) && regNames[r] != "" {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// gprBases are the GPR name stems in encoding order, from which the sized
// names (rax, eax, ax, al, r8d, ...) are built.
var gprBases = [16]string{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"}

// appendSizedGPR appends the width-appropriate name of GPR r.
func appendSizedGPR(dst []byte, r Reg, width int) []byte {
	n := r.Enc()
	base := gprBases[n]
	switch width {
	case 64:
		if n < 8 {
			return append(append(dst, 'r'), base...)
		}
		return append(dst, base...)
	case 32:
		if n < 8 {
			return append(append(dst, 'e'), base...)
		}
		return append(append(dst, base...), 'd')
	case 16:
		if n < 8 {
			return append(dst, base...)
		}
		return append(append(dst, base...), 'w')
	case 8:
		if n < 4 {
			return append(append(dst, base[0]), 'l')
		}
		if n < 8 {
			return append(append(dst, base...), 'l')
		}
		return append(append(dst, base...), 'b')
	}
	return append(dst, r.String()...)
}
