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

// TestBuildIntoReuse: building blocks one after another into one Block
// gives, for each, a block equal to a fresh Build: large then small,
// macro-fused pairs after unfused code, a decode error in between, and a
// block whose µops outgrow a reused array.
func TestBuildIntoReuse(t *testing.T) {
	cfg := uarch.MustByName("SKL")
	enc := func(instrs ...asm.Instr) []byte { return asm.MustEncodeBlock(instrs) }
	repeat := func(n int, ins asm.Instr) []asm.Instr {
		out := make([]asm.Instr, n)
		for k := range out {
			out[k] = ins
		}
		return out
	}
	add := asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	// A read-modify-write add has four µops, twice the array's first size
	// per instruction.
	rmw := asm.Mk(x86.ADD, 64, asm.M(x86.RDI, 8), asm.R(x86.RAX))
	fused := enc(
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.MkCC(x86.JCC, x86.CondE, 64, asm.I(-12)),
	)
	loop := enc(
		asm.Mk(x86.IMUL, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	)
	codes := []struct {
		name string
		code []byte
	}{
		{"µop growth", enc(repeat(8, rmw)...)},
		{"large", enc(repeat(64, add)...)},
		{"small", enc(add)},
		{"fused pair", fused},
		{"zero idiom and eliminated move", enc(
			asm.Mk(x86.XOR, 32, asm.R(x86.RDX), asm.R(x86.RDX)),
			asm.Mk(x86.MOV, 64, asm.R(x86.RBX), asm.R(x86.RCX)),
		)},
		{"decode error", []byte{0xD9, 0xC0}},
		{"loop", loop},
		{"µop growth on a reused array", enc(repeat(40, rmw)...)},
		{"fused pair again", fused},
		{"empty", nil},
		{"loop again", loop},
	}
	var b Block
	for _, tc := range codes {
		want, errWant := Build(cfg, tc.code)
		errGot := BuildInto(&b, cfg, tc.code)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%s: Build error %v, BuildInto error %v", tc.name, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if !sameAsFresh(&b, want) {
			t.Fatalf("%s: BuildInto into a reused block differs from Build:\n%s\nwant\n%s", tc.name, b.String(), want.String())
		}
		// Equal values are not enough: every descriptor's µops must lie in
		// the block's current µop array, not in one it has replaced.
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b.uops)))
		hi := lo + uintptr(len(b.uops))*unsafe.Sizeof(isa.Uop{})
		for k := range b.Insts {
			if uops := b.Insts[k].Desc.Uops; len(uops) > 0 {
				if p := uintptr(unsafe.Pointer(&uops[0])); p < lo || p >= hi {
					t.Fatalf("%s: instruction %d's µops lie outside the block's µop array", tc.name, k)
				}
			}
		}
	}
}

// TestShrinkingBuildDropsTail: a build smaller than the block's last one
// leaves no reference in the instruction or decode-unit array past its
// length, so Release, which clears only up to the lengths, drops every
// reference to the larger block's code.
func TestShrinkingBuildDropsTail(t *testing.T) {
	cfg := uarch.MustByName("SKL")
	add := asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	large := asm.MustEncodeBlock([]asm.Instr{add, add, add, add, add, add, add, add})
	small := asm.MustEncodeBlock([]asm.Instr{add})
	var b Block
	for _, code := range [][]byte{large, small, large, {0x48, 0x01, 0xd8, 0xd9, 0xc0}} {
		BuildInto(&b, cfg, code) // the last one fails to decode its x87 tail
		for k, ins := range b.Insts[len(b.Insts):cap(b.Insts)] {
			if ins.Inst.Raw != nil {
				t.Fatalf("%x: instruction %d past the length holds code bytes", code, len(b.Insts)+k)
			}
		}
		for k, u := range b.decodeUnits[len(b.decodeUnits):cap(b.decodeUnits)] {
			if u != nil {
				t.Fatalf("%x: decode unit %d past the length is set", code, len(b.decodeUnits)+k)
			}
		}
	}
}

// TestReleaseDropsCode: after Release a Block references neither its code
// nor its configuration, also in the tail a smaller block left of a larger
// one's instruction array, and it still builds like a fresh one.
func TestReleaseDropsCode(t *testing.T) {
	cfg := uarch.MustByName("SKL")
	add := asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	large := asm.MustEncodeBlock([]asm.Instr{add, add, add, add, add, add, add, add})
	small := asm.MustEncodeBlock([]asm.Instr{add})
	var b Block
	for _, code := range [][]byte{large, small} {
		if err := BuildInto(&b, cfg, code); err != nil {
			t.Fatal(err)
		}
	}
	b.Release()
	if b.Code != nil || b.Cfg != nil {
		t.Fatal("Release kept the code or the configuration")
	}
	for k, ins := range b.Insts[:cap(b.Insts)] {
		if ins.Inst.Raw != nil {
			t.Fatalf("instruction %d still holds its code bytes after Release", k)
		}
	}
	if err := BuildInto(&b, cfg, small); err != nil {
		t.Fatal(err)
	}
	if want, _ := Build(cfg, small); !sameAsFresh(&b, want) {
		t.Fatalf("a released block rebuilds differently:\n%s\nwant\n%s", b.String(), want.String())
	}
}

// sameAsFresh reports whether b equals a fresh Build of the same block.
func sameAsFresh(b, fresh *Block) bool { return reflect.DeepEqual(b, fresh) }

// builds counts the builds that derive the descriptors afresh, and among
// them those that decode afresh too, while the hook watchBuilds installs
// is in place.
type builds struct{ descs, decodes int }

func watchBuilds(t *testing.T) *builds {
	var n builds
	testHookBuild = func(decoded bool) {
		n.descs++
		if decoded {
			n.decodes++
		}
	}
	t.Cleanup(func() { testHookBuild = nil })
	return &n
}

// TestBuildIntoKeepsDecode: rebuilding the same bytes for another
// configuration keeps the decode, and the block still equals a fresh Build
// for that configuration, its instructions pointing into the new buffer.
// The configurations differ in macro-fusion, move elimination, ports and
// instruction tables. A failed build or Release in between ends the reuse,
// and what is built next equals a fresh Build too.
func TestBuildIntoKeepsDecode(t *testing.T) {
	skl, ivb, icl := uarch.MustByName("SKL"), uarch.MustByName("IVB"), uarch.MustByName("ICL")
	noFusion, err := uarch.Default().DeriveConfig("SKL-nofusion", "SKL", []byte(`{"macro_fusion":false,"move_elim_gpr":false}`))
	if err != nil {
		t.Fatal(err)
	}
	enc := func(instrs ...asm.Instr) []byte { return asm.MustEncodeBlock(instrs) }
	loop := enc(
		asm.Mk(x86.MOV, 64, asm.R(x86.RBX), asm.R(x86.RAX)),
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RBX, 8)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RDX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	)
	fma := enc(
		asm.Mk(x86.VFMADD231PS, 128, asm.R(x86.X0), asm.R(x86.X1), asm.R(x86.X2)),
		asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
		asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
	)
	var b Block
	n := watchBuilds(t)
	step := func(name string, cfg *uarch.Config, code []byte, wantKept bool) {
		t.Helper()
		code = append([]byte(nil), code...) // a new buffer every time
		before := *n
		if err := BuildInto(&b, cfg, code); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if kept := n.decodes == before.decodes; kept != wantKept {
			t.Fatalf("%s: decode kept %v, want %v", name, kept, wantKept)
		}
		fresh, err := Build(cfg, code)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAsFresh(&b, fresh) {
			t.Fatalf("%s: block differs from a fresh Build:\n%s\nwant\n%s", name, b.String(), fresh.String())
		}
		if &b.Insts[0].Inst.Raw[0] != &code[0] {
			t.Fatalf("%s: instructions do not point into the new code", name)
		}
	}
	step("loop on SKL", skl, loop, false)
	step("loop without fusion or move elimination", noFusion, loop, true)
	step("loop on IVB", ivb, loop, true)
	step("loop on SKL again", skl, loop, true)
	step("fma on ICL", icl, fma, false)
	step("fma on SKL", skl, fma, true)
	if err := BuildInto(&b, ivb, fma); err == nil {
		t.Fatal("FMA built for IVB")
	}
	step("fma after a failed lookup", skl, fma, false)
	step("fma kept", icl, fma, true)
	b.Release()
	step("fma after Release", skl, fma, false)
	if err := BuildInto(&b, skl, nil); err == nil {
		t.Fatal("empty block built")
	}
	step("fma after an empty block", skl, fma, false)
	if err := BuildInto(&b, skl, []byte{0xD9, 0xC0}); err == nil {
		t.Fatal("x87 block built")
	}
	step("loop after a decode error", noFusion, loop, false)
	sameLength := append([]byte(nil), loop...)
	sameLength[len(sameLength)-1]-- // another jump target, same length
	step("other bytes of the same length", noFusion, sameLength, false)
}

// TestBuildIntoKeepsDescriptors: rebuilding the same bytes for a
// configuration that agrees with the last one on every field isa.SameDescs
// compares keeps the descriptors, fusion marks and derived views, and
// redoes the JCC-erratum flag when only jcc_erratum differs; a
// configuration that differs in a compared field derives them afresh,
// keeping the decode. Every block still equals a fresh Build.
func TestBuildIntoKeepsDescriptors(t *testing.T) {
	derive := func(overlay string) *uarch.Config {
		cfg, err := uarch.Default().DeriveConfig("SKL-variant", "SKL", []byte(overlay))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	skl := uarch.MustByName("SKL")
	widths := derive(`{"issue_width":6,"num_decoders":2,"dsb_width":8,"lsd_enabled":true,"predec_width":6}`)
	slowLoads := derive(`{"load_latency":9}`)
	noJCC := derive(`{"jcc_erratum":false}`)
	slowAdds := derive(`{"fp_add_latency":9}`)
	// A loop whose jump ends on a 32-byte boundary, with an FP add and a
	// fusible pair.
	var instrs []asm.Instr
	for k := 0; k < 6; k++ {
		instrs = append(instrs, asm.Mk(x86.ADDPS, 128, asm.R(x86.X0), asm.R(x86.X1)))
	}
	instrs = append(instrs,
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RDI, 8)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RDX)),
	)
	body := asm.MustEncodeBlock(instrs)
	for len(body) < 30 {
		body = append([]byte{0x90}, body...)
	}
	loop := append(body, 0x75, 0xe0) // jne back to the start
	if len(loop) != 32 {
		t.Fatalf("loop is %d bytes, want 32", len(loop))
	}
	var b Block
	n := watchBuilds(t)
	step := func(name string, cfg *uarch.Config, code []byte, keepDecode, keepDescs bool) {
		t.Helper()
		before := *n
		code = append([]byte(nil), code...)
		if err := BuildInto(&b, cfg, code); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if keptDecode, keptDescs := n.decodes == before.decodes, n.descs == before.descs; keptDecode != keepDecode || keptDescs != keepDescs {
			t.Fatalf("%s: decode kept %v, descriptors kept %v; want %v, %v", name, keptDecode, keptDescs, keepDecode, keepDescs)
		}
		fresh, err := Build(cfg, code)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAsFresh(&b, fresh) {
			t.Fatalf("%s: block differs from a fresh Build:\n%s\nwant\n%s", name, b.String(), fresh.String())
		}
		if &b.Insts[0].Inst.Raw[0] != &code[0] {
			t.Fatalf("%s: instructions do not point into the new code", name)
		}
	}
	step("SKL", skl, loop, false, false)
	if !b.JCCErratumAffected() || !b.Insts[len(b.Insts)-2].FusedWithNext {
		t.Fatal("the loop should fuse its pair and trigger the JCC erratum on SKL")
	}
	step("other widths", widths, loop, true, true)
	step("slower loads", slowLoads, loop, true, true)
	step("no JCC mitigation", noJCC, loop, true, true)
	if b.JCCErratumAffected() {
		t.Fatal("JCC-erratum flag kept from SKL")
	}
	step("SKL again", skl, loop, true, true)
	step("slower FP adds", slowAdds, loop, true, false)
	step("slower FP adds again", slowAdds, loop, true, true)
	step("other bytes", slowAdds, body, false, false)
	step("the loop again", slowAdds, loop, false, false)
	b.Release()
	step("after Release", slowAdds, loop, false, false)
}
