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
// and modes in turn, each block rebuilt into one bb.Block for every
// configuration back to back — twice for each, so every component reuses
// its last result, and then for a load-latency variant, which keeps the
// descriptors but not the precedence solve, and for arches that change the
// descriptors — predicts exactly what a fresh Analysis predicts for a fresh
// build of every step.
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
	var block bb.Block
	reused := 0
	testHookReuse = func(_ Component, hit bool) {
		if hit {
			reused++
		}
	}
	defer func() { testHookReuse = nil }()
	steps := 0
	for i, g := range blocks {
		for _, mode := range []Mode{TPL, TPU} {
			code := g.LoopCode
			if mode == TPU {
				code = g.Code
			}
			for j := range cfgs {
				cfg := cfgs[(i+j)%len(cfgs)]
				for range 2 {
					if err := bb.BuildInto(&block, cfg, code); err != nil {
						continue
					}
					fresh, err := bb.Build(cfg, code)
					if err != nil {
						t.Fatal(err)
					}
					got := shared.Predict(&block, mode, Options{})
					want := NewAnalysis().Predict(fresh, mode, Options{})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("block %d on %s, %v: a reused Analysis predicts\n%+v\na fresh one\n%+v", i, cfg.Name, mode, got, want)
					}
					steps++
				}
			}
		}
	}
	if steps < 500 || reused < steps {
		t.Fatalf("only %d steps built, %d results reused", steps, reused)
	}
	// Equal dependences on shifted instructions: a leading nop has no
	// values, so it moves the chain to the next instruction and nothing
	// else.
	nopChase := append([]byte{0x90}, chase...)
	for _, code := range [][]byte{chase, nopChase, chase} {
		if err := bb.BuildInto(&block, cfgs[0], code); err != nil {
			t.Fatal(err)
		}
		got, want := shared.Predict(&block, TPL, Options{}), NewAnalysis().Predict(&block, TPL, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%x: a reused Analysis predicts\n%+v\na fresh one\n%+v", code, got, want)
		}
	}
}

// TestPrecedenceReuseKey: the precedence bound reuses its last solve only
// for a block of the same descriptor generation with an equal load
// latency, and never for a block without a generation. For each part of
// that key, a block differing from its base only there gets a different
// bound, and an Analysis reused across base, base again, variant and base
// answers each as a fresh one does, reusing exactly once: for the repeat.
func TestPrecedenceReuseKey(t *testing.T) {
	skl := uarch.MustByName("SKL")
	derive := func(overlay string) *uarch.Config {
		cfg, err := uarch.Default().DeriveConfig("SKL-variant", "SKL", []byte(overlay))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	var reused []bool
	testHookReuse = func(c Component, hit bool) {
		if c == Precedence {
			reused = append(reused, hit)
		}
	}
	defer func() { testHookReuse = nil }()
	shared := NewAnalysis()
	var block bb.Block
	for _, c := range []struct {
		name          string
		code          []byte
		base, variant *uarch.Config
	}{
		// A pointer chase: the variant keeps the descriptors, so only the
		// load latency tells the two apart.
		{"load latency", asm.MustEncodeBlock([]asm.Instr{asm.Mk(x86.MOV, 64, asm.R(x86.RAX), asm.M(x86.RAX, 0))}),
			skl, derive(`{"load_latency":9}`)},
		// An FP-add chain: the variant keeps the decode and derives new
		// descriptors, with the load latency unchanged.
		{"descriptor generation", asm.MustEncodeBlock([]asm.Instr{asm.Mk(x86.ADDPS, 128, asm.R(x86.X0), asm.R(x86.X0))}),
			skl, derive(`{"fp_add_latency":9}`)},
	} {
		bound := func(cfg *uarch.Config) float64 {
			fresh, err := bb.Build(cfg, c.code)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := NewAnalysis().precedenceBound(fresh)
			return v
		}
		wantB, wantV := bound(c.base), bound(c.variant)
		if wantB == wantV {
			t.Fatalf("%s: base and variant both bound at %v; the case tests nothing", c.name, wantB)
		}
		// Another block first, so the base's first build decodes afresh.
		if err := bb.BuildInto(&block, skl, []byte{0x90}); err != nil {
			t.Fatal(err)
		}
		reused = reused[:0]
		for _, step := range []struct {
			cfg  *uarch.Config
			want float64
		}{{c.base, wantB}, {c.base, wantB}, {c.variant, wantV}, {c.base, wantB}} {
			if err := bb.BuildInto(&block, step.cfg, c.code); err != nil {
				t.Fatal(err)
			}
			if got, _ := shared.precedenceBound(&block); got != step.want {
				t.Fatalf("%s: a reused Analysis bounds %v, a fresh one %v", c.name, got, step.want)
			}
		}
		if want := []bool{false, true, false, false}; !reflect.DeepEqual(reused, want) {
			t.Fatalf("%s: reused %v, want %v", c.name, reused, want)
		}
	}

	// Blocks assembled by hand have no generation: two of them in turn,
	// equal but for one latency, are each solved afresh.
	insn := func(lat int) bb.Instr {
		return bb.Instr{Desc: &isa.Desc{Latency: lat}, Eff: x86.Effects{
			RegReads: []x86.Reg{x86.RAX}, RegWrites: []x86.Reg{x86.RAX}}}
	}
	for _, lat := range []int{1, 3, 1} {
		b := &bb.Block{Cfg: skl, Insts: []bb.Instr{insn(lat)}}
		if got, _ := shared.precedenceBound(b); got != float64(lat) {
			t.Fatalf("hand-built block of latency %d: a reused Analysis bounds %v", lat, got)
		}
	}
}
