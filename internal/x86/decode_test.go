package x86

import (
	"testing"
)

// dec decodes a byte sequence and fails the test on error.
func dec(t *testing.T, bs ...byte) Inst {
	t.Helper()
	inst, err := Decode(bs)
	if err != nil {
		t.Fatalf("Decode(% x): %v", bs, err)
	}
	return inst
}

func TestDecodeALURegReg(t *testing.T) {
	// add rax, rbx => 48 01 d8
	i := dec(t, 0x48, 0x01, 0xD8)
	if i.Op != ADD || i.Form != FormMR || i.Width != 64 {
		t.Fatalf("got %v form %v width %d", i.Op, i.Form, i.Width)
	}
	if i.RM != RAX || i.RegOp != RBX {
		t.Fatalf("operands: rm=%v reg=%v", i.RM, i.RegOp)
	}
	if i.Len != 3 || i.OpcodeOff != 1 {
		t.Fatalf("len=%d opcodeOff=%d", i.Len, i.OpcodeOff)
	}
}

func TestDecode32BitDefault(t *testing.T) {
	// add eax, ebx => 01 d8
	i := dec(t, 0x01, 0xD8)
	if i.Width != 32 || i.OpcodeOff != 0 {
		t.Fatalf("width=%d opcodeOff=%d", i.Width, i.OpcodeOff)
	}
}

func TestDecode16BitLCP(t *testing.T) {
	// add ax, 0x1234 => 66 81 c0 34 12 (imm16 via 66 prefix: LCP)
	i := dec(t, 0x66, 0x81, 0xC0, 0x34, 0x12)
	if i.Op != ADD || i.Width != 16 {
		t.Fatalf("op=%v width=%d", i.Op, i.Width)
	}
	if !i.HasLCP {
		t.Fatal("expected LCP")
	}
	if i.Imm != 0x1234 || i.ImmLen != 2 {
		t.Fatalf("imm=%#x len=%d", i.Imm, i.ImmLen)
	}
	if i.OpcodeOff != 1 {
		t.Fatalf("opcodeOff=%d", i.OpcodeOff)
	}
}

func TestDecodeImm8NoLCP(t *testing.T) {
	// add ax, 8 => 66 83 c0 08 (imm8: no LCP)
	i := dec(t, 0x66, 0x83, 0xC0, 0x08)
	if i.HasLCP {
		t.Fatal("imm8 form must not be flagged LCP")
	}
}

func TestDecodeMovImm16LCP(t *testing.T) {
	// mov ax, 0x1234 => 66 b8 34 12
	i := dec(t, 0x66, 0xB8, 0x34, 0x12)
	if i.Op != MOV || !i.HasLCP || i.Width != 16 {
		t.Fatalf("op=%v lcp=%v width=%d", i.Op, i.HasLCP, i.Width)
	}
	if i.RegOp != RAX {
		t.Fatalf("reg=%v", i.RegOp)
	}
}

func TestDecodeMemSIB(t *testing.T) {
	// mov rax, [rbx+rcx*4+0x10] => 48 8b 44 8b 10
	i := dec(t, 0x48, 0x8B, 0x44, 0x8B, 0x10)
	if i.Op != MOV || !i.IsMem {
		t.Fatalf("op=%v mem=%v", i.Op, i.IsMem)
	}
	m := i.Mem
	if m.Base != RBX || m.Index != RCX || m.Scale != 4 || m.Disp != 0x10 {
		t.Fatalf("mem=%v", m)
	}
	if i.RegOp != RAX {
		t.Fatalf("reg=%v", i.RegOp)
	}
}

func TestDecodeRIPRelative(t *testing.T) {
	// mov rax, [rip+0x100] => 48 8b 05 00 01 00 00
	i := dec(t, 0x48, 0x8B, 0x05, 0x00, 0x01, 0x00, 0x00)
	if i.Mem.Base != RegRIP || i.Mem.Disp != 0x100 {
		t.Fatalf("mem=%v", i.Mem)
	}
}

func TestDecodeRexExtensions(t *testing.T) {
	// add r8, r15 => 4d 01 f8
	i := dec(t, 0x4D, 0x01, 0xF8)
	if i.RM != R8 || i.RegOp != R15 {
		t.Fatalf("rm=%v reg=%v", i.RM, i.RegOp)
	}
}

func TestDecodeGroupOpcodes(t *testing.T) {
	cases := []struct {
		bytes []byte
		op    Op
	}{
		{[]byte{0x48, 0x83, 0xC0, 0x01}, ADD},        // add rax, 1
		{[]byte{0x48, 0x83, 0xE8, 0x01}, SUB},        // sub rax, 1
		{[]byte{0x48, 0xF7, 0xD8}, NEG},              // neg rax
		{[]byte{0x48, 0xF7, 0xD0}, NOT},              // not rax
		{[]byte{0x48, 0xF7, 0xF3}, DIV},              // div rbx
		{[]byte{0x48, 0xFF, 0xC0}, INC},              // inc rax
		{[]byte{0x48, 0xFF, 0xC8}, DEC},              // dec rax
		{[]byte{0x48, 0xC1, 0xE0, 0x05}, SHL},        // shl rax, 5
		{[]byte{0x48, 0xD3, 0xE8}, SHR},              // shr rax, cl
		{[]byte{0x48, 0xF7, 0xC0, 1, 0, 0, 0}, TEST}, // test rax, 1
	}
	for _, c := range cases {
		i := dec(t, c.bytes...)
		if i.Op != c.op {
			t.Errorf("% x: got %v want %v", c.bytes, i.Op, c.op)
		}
		if i.Len != len(c.bytes) {
			t.Errorf("% x: len %d want %d", c.bytes, i.Len, len(c.bytes))
		}
	}
}

func TestDecodeShiftByCL(t *testing.T) {
	i := dec(t, 0x48, 0xD3, 0xE8) // shr rax, cl
	if !i.UsesCL {
		t.Fatal("expected UsesCL")
	}
	eff := i.Effects()
	found := false
	for _, r := range eff.RegReads {
		if r == RCX {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected RCX in reads, got %v", eff.RegReads)
	}
}

func TestDecodeShiftBy1(t *testing.T) {
	i := dec(t, 0x48, 0xD1, 0xE0) // shl rax, 1
	if !i.HasImm || i.Imm != 1 {
		t.Fatalf("imm=%v hasImm=%v", i.Imm, i.HasImm)
	}
}

func TestDecodeBranches(t *testing.T) {
	i := dec(t, 0x75, 0xFE) // jne .-2
	if i.Op != JCC || i.Cond != CondNE || i.Imm != -2 {
		t.Fatalf("op=%v cond=%v imm=%d", i.Op, i.Cond, i.Imm)
	}
	i = dec(t, 0x0F, 0x84, 0x00, 0x01, 0x00, 0x00) // je .+0x100
	if i.Op != JCC || i.Cond != CondE || i.Imm != 0x100 || i.Len != 6 {
		t.Fatalf("op=%v cond=%v imm=%d len=%d", i.Op, i.Cond, i.Imm, i.Len)
	}
	i = dec(t, 0xEB, 0x10)
	if i.Op != JMP || i.Imm != 0x10 {
		t.Fatalf("op=%v imm=%d", i.Op, i.Imm)
	}
}

func TestDecodeSSE(t *testing.T) {
	// addps xmm1, xmm2 => 0f 58 ca
	i := dec(t, 0x0F, 0x58, 0xCA)
	if i.Op != ADDPS || i.Width != 128 || i.RegOp != X1 || i.RM != X2 {
		t.Fatalf("%+v", i)
	}
	// addpd xmm1, xmm2 => 66 0f 58 ca
	i = dec(t, 0x66, 0x0F, 0x58, 0xCA)
	if i.Op != ADDPD {
		t.Fatalf("got %v", i.Op)
	}
	if i.HasLCP {
		t.Fatal("mandatory 66 prefix on SSE op must not count as LCP")
	}
	// addsd xmm1, xmm2 => f2 0f 58 ca
	i = dec(t, 0xF2, 0x0F, 0x58, 0xCA)
	if i.Op != ADDSD {
		t.Fatalf("got %v", i.Op)
	}
	// pxor xmm3, xmm3 => 66 0f ef db
	i = dec(t, 0x66, 0x0F, 0xEF, 0xDB)
	if i.Op != PXOR || !i.IsZeroIdiom() {
		t.Fatalf("op=%v zeroIdiom=%v", i.Op, i.IsZeroIdiom())
	}
}

func TestDecodeVEX(t *testing.T) {
	// vaddps xmm0, xmm1, xmm2 => c5 f0 58 c2
	i := dec(t, 0xC5, 0xF0, 0x58, 0xC2)
	if i.Op != ADDPS || !i.VEX || i.Form != FormVRM {
		t.Fatalf("op=%v vex=%v form=%v", i.Op, i.VEX, i.Form)
	}
	if i.RegOp != X0 || i.VReg != X1 || i.RM != X2 {
		t.Fatalf("dst=%v vvvv=%v rm=%v", i.RegOp, i.VReg, i.RM)
	}
	// vaddps ymm0, ymm1, ymm2 => c5 f4 58 c2
	i = dec(t, 0xC5, 0xF4, 0x58, 0xC2)
	if i.Width != 256 {
		t.Fatalf("width=%d", i.Width)
	}
	// vfmadd231ps xmm1, xmm2, xmm3 => c4 e2 69 b8 cb
	i = dec(t, 0xC4, 0xE2, 0x69, 0xB8, 0xCB)
	if i.Op != VFMADD231PS || i.Form != FormVRM {
		t.Fatalf("op=%v form=%v", i.Op, i.Form)
	}
	if i.RegOp != X1 || i.VReg != X2 || i.RM != X3 {
		t.Fatalf("dst=%v vvvv=%v rm=%v", i.RegOp, i.VReg, i.RM)
	}
	// vfmadd231pd (W=1): c4 e2 e9 b8 cb
	i = dec(t, 0xC4, 0xE2, 0xE9, 0xB8, 0xCB)
	if i.Op != VFMADD231PD {
		t.Fatalf("op=%v", i.Op)
	}
}

func TestDecodeNops(t *testing.T) {
	lens := [][]byte{
		{0x90},
		{0x66, 0x90},
		{0x0F, 0x1F, 0x00},
		{0x0F, 0x1F, 0x40, 0x00},
		{0x0F, 0x1F, 0x44, 0x00, 0x00},
		{0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
		{0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
		{0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
	}
	for want, bs := range lens {
		i := dec(t, bs...)
		if i.Op != NOP {
			t.Errorf("% x: got %v", bs, i.Op)
		}
		if i.Len != want+1 {
			t.Errorf("% x: len=%d want %d", bs, i.Len, want+1)
		}
		eff := i.Effects()
		if len(eff.RegReads) != 0 || len(eff.RegWrites) != 0 || eff.Load || eff.Store {
			t.Errorf("nop must have no effects, got %+v", eff)
		}
	}
}

func TestDecodeMovzx(t *testing.T) {
	// movzx eax, bl => 0f b6 c3
	i := dec(t, 0x0F, 0xB6, 0xC3)
	if i.Op != MOVZX || i.Width != 32 || i.MemWidth != 8 {
		t.Fatalf("%+v", i)
	}
}

func TestDecodePushPop(t *testing.T) {
	i := dec(t, 0x50) // push rax
	if i.Op != PUSH || i.RegOp != RAX || i.Width != 64 {
		t.Fatalf("%+v", i)
	}
	eff := i.Effects()
	if !eff.Store || eff.Load {
		t.Fatalf("push effects: %+v", eff)
	}
	i = dec(t, 0x41, 0x58) // pop r8
	if i.Op != POP || i.RegOp != R8 {
		t.Fatalf("%+v", i)
	}
	eff = i.Effects()
	if !eff.Load || eff.Store {
		t.Fatalf("pop effects: %+v", eff)
	}
}

func TestDecodeCMOVAndSETcc(t *testing.T) {
	// cmovne rax, rbx => 48 0f 45 c3
	i := dec(t, 0x48, 0x0F, 0x45, 0xC3)
	if i.Op != CMOVCC || i.Cond != CondNE {
		t.Fatalf("%+v", i)
	}
	eff := i.Effects()
	if !eff.ReadsFlags {
		t.Fatal("cmov must read flags")
	}
	// dest must also be read (conditional merge)
	foundDst := false
	for _, r := range eff.RegReads {
		if r == RAX {
			foundDst = true
		}
	}
	if !foundDst {
		t.Fatalf("cmov must read its destination, reads=%v", eff.RegReads)
	}
	// sete al => 0f 94 c0
	i = dec(t, 0x0F, 0x94, 0xC0)
	if i.Op != SETCC || i.Cond != CondE || i.Width != 8 {
		t.Fatalf("%+v", i)
	}
}

func TestDecodePopcnt(t *testing.T) {
	// popcnt rax, rbx => f3 48 0f b8 c3
	i := dec(t, 0xF3, 0x48, 0x0F, 0xB8, 0xC3)
	if i.Op != POPCNT || i.Width != 64 {
		t.Fatalf("%+v", i)
	}
}

func TestDecodeDIVEffects(t *testing.T) {
	i := dec(t, 0x48, 0xF7, 0xF3) // div rbx
	eff := i.Effects()
	reads := map[Reg]bool{}
	for _, r := range eff.RegReads {
		reads[r] = true
	}
	if !reads[RAX] || !reads[RDX] || !reads[RBX] {
		t.Fatalf("div reads: %v", eff.RegReads)
	}
	writes := map[Reg]bool{}
	for _, r := range eff.RegWrites {
		writes[r] = true
	}
	if !writes[RAX] || !writes[RDX] {
		t.Fatalf("div writes: %v", eff.RegWrites)
	}
}

func TestDecodeZeroIdiom(t *testing.T) {
	i := dec(t, 0x48, 0x31, 0xC0) // xor rax, rax
	if !i.IsZeroIdiom() {
		t.Fatal("xor rax, rax must be a zero idiom")
	}
	eff := i.Effects()
	if len(eff.RegReads) != 0 {
		t.Fatalf("zero idiom must read nothing, got %v", eff.RegReads)
	}
	i = dec(t, 0x48, 0x31, 0xD8) // xor rax, rbx
	if i.IsZeroIdiom() {
		t.Fatal("xor rax, rbx is not a zero idiom")
	}
}

func TestDecodeMoveElimCandidates(t *testing.T) {
	i := dec(t, 0x48, 0x89, 0xD8) // mov rax, rbx
	if !i.IsRegMove() {
		t.Fatal("mov rax, rbx must be a reg move")
	}
	i = dec(t, 0x0F, 0x28, 0xCA) // movaps xmm1, xmm2
	if !i.IsRegMove() {
		t.Fatal("movaps xmm1, xmm2 must be a reg move")
	}
	i = dec(t, 0x48, 0x8B, 0x03) // mov rax, [rbx]
	if i.IsRegMove() {
		t.Fatal("load is not a reg move")
	}
}

func TestDecodeBlockBoundaries(t *testing.T) {
	code := []byte{
		0x48, 0x01, 0xD8, // add rax, rbx
		0x90,       // nop
		0x75, 0xFA, // jne
	}
	insts, err := DecodeBlock(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 3 {
		t.Fatalf("got %d instructions", len(insts))
	}
	total := 0
	for _, i := range insts {
		total += i.Len
	}
	if total != len(code) {
		t.Fatalf("lengths sum to %d, want %d", total, len(code))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0x48},             // REX only
		{0x81, 0xC0, 0x01}, // truncated imm32
		{0x0F, 0x3A, 0x00}, // unsupported map
		{0x67, 0x8B, 0x00}, // address-size prefix
		{0xD9, 0xC0},       // x87 (unsupported)
	}
	for _, bs := range cases {
		if _, err := Decode(bs); err == nil {
			t.Errorf("Decode(% x): expected error", bs)
		}
	}
}

func TestDecodeImulRMI(t *testing.T) {
	// imul ax, bx, 0x1234 => 66 69 c3 34 12 (LCP!)
	i := dec(t, 0x66, 0x69, 0xC3, 0x34, 0x12)
	if i.Op != IMUL || i.Form != FormRMI || !i.HasLCP {
		t.Fatalf("%+v", i)
	}
	eff := i.Effects()
	// imul r, r/m, imm does not read the destination.
	for _, r := range eff.RegReads {
		if r == RAX {
			t.Fatalf("3-operand imul must not read dest, reads=%v", eff.RegReads)
		}
	}
}

func TestStringSmoke(t *testing.T) {
	// Formatting should not panic and should contain the mnemonic.
	insts := [][]byte{
		{0x48, 0x01, 0xD8},
		{0x66, 0x81, 0xC0, 0x34, 0x12},
		{0xC5, 0xF0, 0x58, 0xC2},
		{0x75, 0xFE},
		{0x0F, 0x94, 0xC0},
		{0x48, 0x8B, 0x44, 0x8B, 0x10},
	}
	for _, bs := range insts {
		i := dec(t, bs...)
		if i.String() == "" {
			t.Errorf("% x: empty String()", bs)
		}
	}
}

// TestOpSemsCoverEveryOp: opSems is an array indexed by Op, so an Op
// added without an entry would read as destUnknown and silently get no
// effects.
func TestOpSemsCoverEveryOp(t *testing.T) {
	for op := OpInvalid + 1; op < NumOps; op++ {
		if opSems[op].dest == destUnknown {
			t.Errorf("%v has no entry in opSems", op)
		}
	}
}
