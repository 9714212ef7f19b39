package core

import (
	"reflect"
	"testing"

	"facile/internal/asm"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// TestAnalysisReuseMatchesFresh: one Analysis used across blocks, arches
// and modes in turn, each block rebuilt into one bb.Block for every
// configuration back to back — twice for each, then for a load-latency
// variant, which keeps the descriptors, and for arches that change them —
// predicts exactly what a fresh Analysis predicts for a fresh build of
// every step: nothing its scratch keeps from one call leaks into the next.
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
	if steps < 500 {
		t.Fatalf("only %d steps built", steps)
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
