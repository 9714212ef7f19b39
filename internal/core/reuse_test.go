package core

import (
	"reflect"
	"testing"

	"facile/internal/asm"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/isa"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// TestAnalysisReuseMatchesFresh: one Analysis used across blocks, arches
// and modes in turn — with each (block, arch) pair repeated back to back,
// so the precedence bound reuses its last solve, and solve inputs that
// differ only in the load latency (a variant) following each other —
// predicts exactly what a fresh Analysis predicts for every step.
func TestAnalysisReuseMatchesFresh(t *testing.T) {
	slowLoads, err := uarch.Default().DeriveConfig("SKL-slowloads", "SKL", []byte(`{"load_latency":9}`))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []*uarch.Config{uarch.MustByName("SKL"), slowLoads, uarch.MustByName("SNB"), uarch.MustByName("ICL")}
	// A pointer chase first: its only cycle runs through a load, so the
	// load-latency variant changes only the solve's load latency.
	chase := asm.MustEncodeBlock([]asm.Instr{asm.Mk(x86.MOV, 64, asm.R(x86.RAX), asm.M(x86.RAX, 0))})
	blocks := []bhive.GenBlock{{Category: "pointer chase", Code: chase, LoopCode: chase}}
	blocks = append(blocks, bhive.GenerateBlocks(5, 60)...)
	shared := NewAnalysis()
	steps := 0
	for i, g := range blocks {
		for j := range cfgs {
			cfg := cfgs[(i+j)%len(cfgs)]
			for _, mode := range []Mode{TPL, TPL, TPU} {
				code := g.LoopCode
				if mode == TPU {
					code = g.Code
				}
				block, err := bb.Build(cfg, code)
				if err != nil {
					continue
				}
				got := shared.Predict(block, mode, Options{})
				want := NewAnalysis().Predict(block, mode, Options{})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("block %d on %s, %v: a reused Analysis predicts\n%+v\na fresh one\n%+v", i, cfg.Name, mode, got, want)
				}
				steps++
			}
		}
	}
	if steps < 500 {
		t.Fatalf("only %d steps built", steps)
	}
	// Equal dependences on shifted instructions: a leading nop has no
	// values, so it moves the chain to the next instruction and nothing
	// else.
	nopChase := append([]byte{0x90}, chase...)
	for _, code := range [][]byte{chase, nopChase, chase} {
		block, err := bb.Build(cfgs[0], code)
		if err != nil {
			t.Fatal(err)
		}
		got, want := shared.Predict(block, TPL, Options{}), NewAnalysis().Predict(block, TPL, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%x: a reused Analysis predicts\n%+v\na fresh one\n%+v", code, got, want)
		}
	}
}

// TestPrecedenceReuseKey: the precedence bound reuses its last solve only
// for an equal solve input. For each part of that input — an instruction's
// latency, load bit, flag bits and register lists, and the load latency —
// a block differing from its base only there gets a different bound, and an
// Analysis reused across base, variant and base again answers each as a
// fresh one does.
func TestPrecedenceReuseKey(t *testing.T) {
	cfg := uarch.MustByName("SKL")
	slow := *cfg
	slow.LoadLat = cfg.LoadLat + 4
	// insn is one hand-built instruction: its latency, load bit and
	// effects are all the precedence bound reads.
	insn := func(lat int, load bool, eff x86.Effects) bb.Instr {
		return bb.Instr{Desc: &isa.Desc{Latency: lat, Load: load}, Eff: eff}
	}
	regs := func(rs ...x86.Reg) []x86.Reg { return rs }
	// base: rax carries around a load through rbx (1 + load latency + 3
	// per iteration; rbx is a data input too, but the address path is the
	// longer) and a 1-cycle rax self-loop.
	base := func() *bb.Block {
		return &bb.Block{Cfg: cfg, Insts: []bb.Instr{
			insn(1, true, x86.Effects{RegReads: regs(x86.RAX, x86.RBX), AddrReads: regs(x86.RBX), RegWrites: regs(x86.RAX)}),
			insn(3, false, x86.Effects{RegReads: regs(x86.RAX), RegWrites: regs(x86.RBX)}),
		}}
	}
	// flagsBase: a 2-cycle chain through the flags alone.
	flagsBase := func() *bb.Block {
		return &bb.Block{Cfg: cfg, Insts: []bb.Instr{
			insn(2, false, x86.Effects{ReadsFlags: true, WritesFlags: true}),
		}}
	}
	cases := []struct {
		name   string
		base   func() *bb.Block
		mutate func(b *bb.Block)
	}{
		{"latency", base, func(b *bb.Block) { b.Insts[1].Desc.Latency = 4 }},
		{"load bit", base, func(b *bb.Block) { b.Insts[0].Desc.Load = false }},
		{"load latency", base, func(b *bb.Block) { b.Cfg = &slow }},
		{"address read", base, func(b *bb.Block) { b.Insts[0].Eff.AddrReads = nil }},
		{"read register", base, func(b *bb.Block) { b.Insts[1].Eff.RegReads = regs(x86.RDX) }},
		{"written register", base, func(b *bb.Block) { b.Insts[1].Eff.RegWrites = regs(x86.RCX) }},
		{"reads flags", flagsBase, func(b *bb.Block) { b.Insts[0].Eff.ReadsFlags = false }},
		{"writes flags", flagsBase, func(b *bb.Block) { b.Insts[0].Eff.WritesFlags = false }},
	}
	shared := NewAnalysis()
	for _, c := range cases {
		b, v := c.base(), c.base()
		c.mutate(v)
		wantB, _ := NewAnalysis().precedenceBound(b)
		wantV, _ := NewAnalysis().precedenceBound(v)
		if wantB == wantV {
			t.Fatalf("%s: base and variant both bound at %v; the case tests nothing", c.name, wantB)
		}
		for _, step := range []struct {
			block *bb.Block
			want  float64
		}{{b, wantB}, {v, wantV}, {b, wantB}} {
			if got, _ := shared.precedenceBound(step.block); got != step.want {
				t.Fatalf("%s: a reused Analysis bounds %v, a fresh one %v", c.name, got, step.want)
			}
		}
	}
}
