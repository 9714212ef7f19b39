package isa

import (
	"testing"

	"facile/internal/asm"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// lookup is Lookup into a fresh descriptor and µop buffer.
func lookup(cfg *uarch.Config, inst *x86.Inst) (*Desc, error) {
	eff := inst.Effects()
	d := new(Desc)
	_, err := Lookup(cfg, inst, &eff, d, nil)
	return d, err
}

func mustDesc(t *testing.T, cfg *uarch.Config, ins asm.Instr) (*x86.Inst, *Desc) {
	t.Helper()
	code, err := asm.Encode(ins)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := x86.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lookup(cfg, &inst)
	if err != nil {
		t.Fatal(err)
	}
	return &inst, d
}

func TestSimpleALU(t *testing.T) {
	_, d := mustDesc(t, uarch.MustByName("SKL"), asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX)))
	if d.FusedUops != 1 || d.IssueUops != 1 || len(d.Uops) != 1 {
		t.Fatalf("%+v", d)
	}
	if d.Complex {
		t.Fatal("1-µop instruction must not need the complex decoder")
	}
	if d.Latency != 1 {
		t.Fatalf("latency %d", d.Latency)
	}
	if d.Uops[0].Ports != uarch.P(0, 1, 5, 6) {
		t.Fatalf("ports %v", d.Uops[0].Ports)
	}
}

func TestLoadOp(t *testing.T) {
	// add rax, [rbx]: 1 fused µop (micro-fused), 2 unfused.
	_, d := mustDesc(t, uarch.MustByName("SKL"), asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RBX, 0)))
	if d.FusedUops != 1 || len(d.Uops) != 2 || !d.Load || d.Store {
		t.Fatalf("%+v", d)
	}
	if d.Uops[0].Role != uarch.RoleLoad {
		t.Fatalf("first µop must be the load, got %v", d.Uops[0].Role)
	}
	groups := d.FusedGroups()
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestRMW(t *testing.T) {
	// add [rbx], rax: 2 fused µops, 4 unfused (load, alu, sta, std).
	_, d := mustDesc(t, uarch.MustByName("SKL"), asm.Mk(x86.ADD, 64, asm.M(x86.RBX, 0), asm.R(x86.RAX)))
	if d.FusedUops != 2 || len(d.Uops) != 4 || !d.Load || !d.Store {
		t.Fatalf("%+v", d)
	}
	if !d.Complex {
		t.Fatal("multi-µop instruction requires the complex decoder")
	}
	groups := d.FusedGroups()
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestStore(t *testing.T) {
	// mov [rbx], rax: 1 fused µop (sta+std micro-fused), 2 unfused.
	_, d := mustDesc(t, uarch.MustByName("SKL"), asm.Mk(x86.MOV, 64, asm.M(x86.RBX, 0), asm.R(x86.RAX)))
	if d.FusedUops != 1 || len(d.Uops) != 2 {
		t.Fatalf("%+v", d)
	}
	if d.Uops[0].Role != uarch.RoleStoreAddr || d.Uops[1].Role != uarch.RoleStoreData {
		t.Fatalf("roles: %v %v", d.Uops[0].Role, d.Uops[1].Role)
	}
}

func TestUnlamination(t *testing.T) {
	ins := asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.MX(x86.RBX, x86.RCX, 1, 0))
	_, dSKL := mustDesc(t, uarch.MustByName("SKL"), ins)
	if dSKL.IssueUops != 2 || !dSKL.Unlaminated {
		t.Fatalf("SKL: %+v", dSKL)
	}
	_, dICL := mustDesc(t, uarch.MustByName("ICL"), ins)
	if dICL.IssueUops != 1 || dICL.Unlaminated {
		t.Fatalf("ICL: %+v", dICL)
	}
	groups := dSKL.IssueGroups(true)
	if len(groups) != 2 {
		t.Fatalf("unlaminated groups = %v", groups)
	}
}

func TestMoveElimination(t *testing.T) {
	ins := asm.Mk(x86.MOV, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	for _, c := range []struct {
		cfg  *uarch.Config
		elim bool
	}{
		{uarch.MustByName("SNB"), false}, {uarch.MustByName("IVB"), true}, {uarch.MustByName("SKL"), true}, {uarch.MustByName("ICL"), false},
	} {
		_, d := mustDesc(t, c.cfg, ins)
		if d.Eliminated != c.elim {
			t.Errorf("%s: eliminated = %v, want %v", c.cfg.Name, d.Eliminated, c.elim)
		}
		if c.elim && (len(d.Uops) != 0 || d.Latency != 0) {
			t.Errorf("%s: eliminated move with µops/latency: %+v", c.cfg.Name, d)
		}
	}
	// Vector moves are eliminated on ICL (only GPR elimination is disabled).
	vins := asm.Mk(x86.MOVAPS, 128, asm.R(x86.X1), asm.R(x86.X2))
	_, d := mustDesc(t, uarch.MustByName("ICL"), vins)
	if !d.Eliminated {
		t.Fatal("ICL must eliminate vector moves")
	}
}

func TestZeroIdiom(t *testing.T) {
	_, d := mustDesc(t, uarch.MustByName("SNB"), asm.Mk(x86.XOR, 64, asm.R(x86.RAX), asm.R(x86.RAX)))
	if !d.Eliminated || len(d.Uops) != 0 {
		t.Fatalf("%+v", d)
	}
}

func TestNop(t *testing.T) {
	_, d := mustDesc(t, uarch.MustByName("SKL"), Instr0())
	if d.FusedUops != 1 || len(d.Uops) != 0 || d.Eliminated {
		t.Fatalf("%+v", d)
	}
}

// Instr0 returns a 1-byte NOP.
func Instr0() asm.Instr { return asm.Mk(x86.NOP, 1) }

func TestADCGenerations(t *testing.T) {
	ins := asm.Mk(x86.ADC, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	_, dHSW := mustDesc(t, uarch.MustByName("HSW"), ins)
	if len(dHSW.Uops) != 2 || dHSW.Latency != 2 {
		t.Fatalf("HSW adc: %+v", dHSW)
	}
	_, dBDW := mustDesc(t, uarch.MustByName("BDW"), ins)
	if len(dBDW.Uops) != 1 || dBDW.Latency != 1 {
		t.Fatalf("BDW adc: %+v", dBDW)
	}
}

func TestCMOVGenerations(t *testing.T) {
	ins := asm.MkCC(x86.CMOVCC, x86.CondNE, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	_, dHSW := mustDesc(t, uarch.MustByName("HSW"), ins)
	if len(dHSW.Uops) != 2 {
		t.Fatalf("HSW cmov: %+v", dHSW)
	}
	_, dSKL := mustDesc(t, uarch.MustByName("SKL"), ins)
	if len(dSKL.Uops) != 1 {
		t.Fatalf("SKL cmov: %+v", dSKL)
	}
}

func TestDIVHeavy(t *testing.T) {
	_, d := mustDesc(t, uarch.MustByName("SKL"), asm.Mk(x86.DIV, 64, asm.R(x86.RBX)))
	if !d.Complex || d.AvailSimple(uarch.MustByName("SKL").NumDecoders) != 1 {
		t.Fatalf("%+v", d)
	}
	if d.TotalRecTP() <= 4 {
		t.Fatalf("divider occupancy too small: %d", d.TotalRecTP())
	}
	if d.Latency < 30 {
		t.Fatalf("latency %d", d.Latency)
	}
}

func TestFMAUnsupportedOnSNB(t *testing.T) {
	code, err := asm.Encode(asm.Instr{Op: x86.VFMADD231PS, Width: 128,
		Args: []asm.Operand{asm.R(x86.X0), asm.R(x86.X1), asm.R(x86.X2)}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := x86.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lookup(uarch.MustByName("SNB"), &inst); err == nil {
		t.Fatal("FMA must be unsupported on SNB")
	}
	if _, err := lookup(uarch.MustByName("HSW"), &inst); err != nil {
		t.Fatalf("FMA must be supported on HSW: %v", err)
	}
}

func TestMacroFusionRules(t *testing.T) {
	mk := func(cfg *uarch.Config, first asm.Instr, cond x86.Cond) bool {
		code, err := asm.Encode(first)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := x86.Decode(code)
		if err != nil {
			t.Fatal(err)
		}
		d, err := lookup(cfg, &inst)
		if err != nil {
			t.Fatal(err)
		}
		jcode, err := asm.Encode(asm.MkCC(x86.JCC, cond, 64, asm.I(-10)))
		if err != nil {
			t.Fatal(err)
		}
		jcc, err := x86.Decode(jcode)
		if err != nil {
			t.Fatal(err)
		}
		return CanMacroFuse(cfg, d, &inst, &jcc)
	}

	cmp := asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RBX))
	test := asm.Mk(x86.TEST, 64, asm.R(x86.RAX), asm.R(x86.RAX))
	dec := asm.Mk(x86.DEC, 64, asm.R(x86.RCX))
	cmpMemImm := asm.Mk(x86.CMP, 64, asm.M(x86.RAX, 0), asm.I(5))
	addMem := asm.Mk(x86.ADD, 64, asm.M(x86.RAX, 0), asm.R(x86.RBX))

	if !mk(uarch.MustByName("SKL"), cmp, x86.CondE) {
		t.Error("cmp+je must fuse on SKL")
	}
	if mk(uarch.MustByName("SKL"), cmp, x86.CondS) {
		t.Error("cmp+js must not fuse")
	}
	if !mk(uarch.MustByName("SKL"), test, x86.CondS) {
		t.Error("test+js must fuse")
	}
	if mk(uarch.MustByName("SKL"), dec, x86.CondB) {
		t.Error("dec+jb must not fuse (dec does not write CF)")
	}
	if !mk(uarch.MustByName("SKL"), dec, x86.CondNE) {
		t.Error("dec+jne must fuse")
	}
	if mk(uarch.MustByName("SKL"), cmpMemImm, x86.CondE) {
		t.Error("cmp mem,imm must not fuse")
	}
	if mk(uarch.MustByName("SKL"), addMem, x86.CondE) {
		t.Error("RMW add must not fuse")
	}
	// SNB does not fuse memory-operand compares at all.
	cmpMem := asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.M(x86.RBX, 0))
	if mk(uarch.MustByName("SNB"), cmpMem, x86.CondE) {
		t.Error("cmp r,m must not fuse on SNB")
	}
	if !mk(uarch.MustByName("SKL"), cmpMem, x86.CondE) {
		t.Error("cmp r,m must fuse on SKL")
	}
}

func TestIssueGroupsMatchIssueUops(t *testing.T) {
	cases := []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RBX, 0)),
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.MX(x86.RBX, x86.RCX, 2, 0)),
		asm.Mk(x86.ADD, 64, asm.M(x86.RBX, 0), asm.R(x86.RAX)),
		asm.Mk(x86.ADD, 64, asm.MX(x86.RBX, x86.RCX, 2, 0), asm.R(x86.RAX)),
		asm.Mk(x86.MOV, 64, asm.M(x86.RBX, 0), asm.R(x86.RAX)),
		asm.Mk(x86.MOV, 64, asm.MX(x86.RBX, x86.RCX, 4, 8), asm.R(x86.RAX)),
		asm.Mk(x86.PUSH, 64, asm.R(x86.RAX)),
		asm.Mk(x86.POP, 64, asm.R(x86.RAX)),
		asm.Mk(x86.DIV, 64, asm.R(x86.RBX)),
		asm.Mk(x86.MUL1, 64, asm.R(x86.RBX)),
	}
	for _, cfg := range uarch.All() {
		for _, ins := range cases {
			_, d := mustDesc(t, cfg, ins)
			groups := d.IssueGroups(d.Unlaminated)
			total := 0
			for _, grp := range groups {
				total += len(grp)
			}
			if total != len(d.Uops) {
				t.Errorf("%s %v: groups cover %d of %d µops", cfg.Name, ins.Op, total, len(d.Uops))
			}
			if len(groups) != d.IssueUops {
				t.Errorf("%s %v: %d issue groups, IssueUops=%d", cfg.Name, ins.Op, len(groups), d.IssueUops)
			}
			fg := d.FusedGroups()
			if len(fg) != d.FusedUops {
				t.Errorf("%s %v: %d fused groups, FusedUops=%d", cfg.Name, ins.Op, len(fg), d.FusedUops)
			}
		}
	}
}
