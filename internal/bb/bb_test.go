package bb

import (
	"reflect"
	"testing"
	"unsafe"

	"facile/internal/asm"
	"facile/internal/isa"
	"facile/internal/uarch"
	"facile/internal/x86"
)

func build(t *testing.T, cfg *uarch.Config, instrs []asm.Instr) *Block {
	t.Helper()
	code, err := asm.EncodeBlock(instrs)
	if err != nil {
		t.Fatal(err)
	}
	block, err := Build(cfg, code)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func TestMacroFusionMarking(t *testing.T) {
	block := build(t, uarch.MustByName("SKL"), []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.I(1)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.MkCC(x86.JCC, x86.CondE, 64, asm.I(-12)),
	})
	if !block.Insts[1].FusedWithNext || !block.Insts[2].FusedWithPrev {
		t.Fatalf("cmp/je must fuse: %+v %+v", block.Insts[1], block.Insts[2])
	}
	if block.FusedUops() != 2 {
		t.Fatalf("fused µops = %d, want 2 (add + fused pair)", block.FusedUops())
	}
	units := block.DecodeUnits()
	if len(units) != 2 {
		t.Fatalf("decode units = %d, want 2", len(units))
	}
	// The fused pair's µop must run on the branch ports.
	pairUops := block.Insts[1].Desc.Uops
	if len(pairUops) != 1 || pairUops[0].Ports != uarch.MustByName("SKL").PortsFor(uarch.RoleBranch) {
		t.Fatalf("pair µop ports: %+v", pairUops)
	}
}

func TestNoFusionOnUnfusablePair(t *testing.T) {
	block := build(t, uarch.MustByName("SKL"), []asm.Instr{
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.MkCC(x86.JCC, x86.CondS, 64, asm.I(-10)), // js does not fuse with cmp
	})
	if block.Insts[0].FusedWithNext {
		t.Fatal("cmp+js must not fuse")
	}
	if block.FusedUops() != 2 {
		t.Fatalf("fused µops = %d, want 2", block.FusedUops())
	}
}

func TestExecUopsExcludesEliminated(t *testing.T) {
	block := build(t, uarch.MustByName("SKL"), []asm.Instr{
		asm.Mk(x86.XOR, 64, asm.R(x86.RAX), asm.R(x86.RAX)), // zero idiom
		asm.Mk(x86.MOV, 64, asm.R(x86.RBX), asm.R(x86.RCX)), // eliminated move
		asm.Mk(x86.ADD, 64, asm.R(x86.RDX), asm.I(1)),
	})
	uops := block.ExecUops()
	if len(uops) != 1 {
		t.Fatalf("exec µops = %d, want 1", len(uops))
	}
}

func TestJCCErratumDetection(t *testing.T) {
	// 30 bytes of nops + 2-byte jcc ends exactly at byte 32.
	code := append(asm.NopBytes(30), 0x75, 0xE0)
	block, err := Build(uarch.MustByName("SKL"), code)
	if err != nil {
		t.Fatal(err)
	}
	if !block.JCCErratumAffected() {
		t.Fatal("jcc ending on a 32-byte boundary must trigger the erratum")
	}

	// Same code on a non-erratum microarchitecture.
	blockHSW, err := Build(uarch.MustByName("HSW"), code)
	if err != nil {
		t.Fatal(err)
	}
	if blockHSW.JCCErratumAffected() {
		t.Fatal("HSW has no JCC erratum")
	}

	// A jcc well inside a 32-byte window is unaffected.
	code2 := append(asm.NopBytes(10), 0x75, 0xF4)
	block2, err := Build(uarch.MustByName("SKL"), code2)
	if err != nil {
		t.Fatal(err)
	}
	if block2.JCCErratumAffected() {
		t.Fatal("short block must not trigger the erratum")
	}

	// A macro-fused pair crossing the boundary triggers it too.
	pair := asm.MustEncodeBlock([]asm.Instr{
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.MkCC(x86.JCC, x86.CondE, 64, asm.I(-33)),
	})
	code3 := append(asm.NopBytes(30), pair...) // cmp starts at 30, crosses 32
	block3, err := Build(uarch.MustByName("SKL"), code3)
	if err != nil {
		t.Fatal(err)
	}
	if !block3.JCCErratumAffected() {
		t.Fatal("fused pair crossing the boundary must trigger the erratum")
	}
}

func TestOffsetsAndLen(t *testing.T) {
	block := build(t, uarch.MustByName("SKL"), []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX)), // 3 bytes
		asm.Mk(x86.NOP, 5),                  // 5 bytes
		asm.Mk(x86.INC, 64, asm.R(x86.RCX)), // 3 bytes
	})
	if block.Len() != 11 {
		t.Fatalf("len = %d", block.Len())
	}
	wantOffs := []int{0, 3, 8}
	for i, w := range wantOffs {
		if block.Insts[i].Off != w {
			t.Fatalf("inst %d off = %d, want %d", i, block.Insts[i].Off, w)
		}
	}
	if block.EndsWithBranch() {
		t.Fatal("block does not end in a branch")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(uarch.MustByName("SKL"), nil); err == nil {
		t.Fatal("empty block must error")
	}
	if _, err := Build(uarch.MustByName("SKL"), []byte{0xD9, 0xC0}); err == nil {
		t.Fatal("undecodable block must error")
	}
}

func TestIssueUopsAcrossArches(t *testing.T) {
	instrs := []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.MX(x86.RBX, x86.RCX, 1, 0)),
		asm.Mk(x86.MOV, 64, asm.MX(x86.RSI, x86.RDI, 1, 0), asm.R(x86.RAX)),
	}
	skl := build(t, uarch.MustByName("SKL"), instrs)
	icl := build(t, uarch.MustByName("ICL"), instrs)
	if skl.IssueUops() <= icl.IssueUops() {
		t.Fatalf("SKL unlaminates (%d) and must exceed ICL (%d)",
			skl.IssueUops(), icl.IssueUops())
	}
}

// TestBlockArrays: every descriptor's µops are its own capacity-limited
// part of one per-block array, laid out in instruction order, and equal the
// µops of the instruction built alone — also when the µops outgrow the
// array's first size (read-modify-write instructions have four each), and
// after macro-fusion retargets a pair's µop.
func TestBlockArrays(t *testing.T) {
	cfg := uarch.MustByName("SKL")
	rmw := asm.Mk(x86.ADD, 64, asm.M(x86.RDI, 8), asm.R(x86.RAX))
	tail := []asm.Instr{
		asm.Mk(x86.XOR, 32, asm.R(x86.RDX), asm.R(x86.RDX)),
		asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	}
	var instrs []asm.Instr
	for k := 0; k < 16; k++ {
		instrs = append(instrs, rmw)
	}
	instrs = append(instrs, tail...)
	block := build(t, cfg, instrs)
	if !block.Insts[len(block.Insts)-2].FusedWithNext {
		t.Fatal("dec+jne should macro-fuse on SKL")
	}
	var prev *isa.Uop
	for k := range block.Insts {
		ins := &block.Insts[k]
		uops := ins.Desc.Uops
		if cap(uops) != len(uops) {
			t.Fatalf("instruction %d: µops have capacity %d beyond their length %d", k, cap(uops), len(uops))
		}
		alone := build(t, cfg, instrs[k:k+1])
		want := alone.Insts[0].Desc.Uops
		if ins.FusedWithNext {
			want = []isa.Uop{{Role: uarch.RoleBranch, Ports: cfg.PortsFor(uarch.RoleBranch), RecTP: 1}}
		}
		if !reflect.DeepEqual(uops, want) {
			t.Fatalf("instruction %d (%s): µops %+v, built alone %+v", k, ins.Inst.String(), uops, want)
		}
		if len(uops) == 0 {
			continue
		}
		if prev != nil && unsafe.Pointer(&uops[0]) != unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(*prev)) {
			t.Fatalf("instruction %d: µops do not follow the previous instruction's in one array", k)
		}
		prev = &uops[len(uops)-1]
	}
}

func TestBlockString(t *testing.T) {
	block := build(t, uarch.MustByName("SKL"), []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RDI, -8)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.MkCC(x86.JCC, x86.CondE, 64, asm.I(-12)),
	})
	want := "  0:   add rax, [rdi-0x8]\n  4: ┐ cmp rax, rbx\n  7: ┘ je .-12\n"
	if got := block.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
}
