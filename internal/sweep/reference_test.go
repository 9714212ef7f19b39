package sweep

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"facile"
	"facile/internal/asm"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// referenceRun computes what Run must return, one (point, block) pair at a
// time with a fresh bb.Build and a fresh core.Analysis each, so no decode,
// text or solve is shared between analyses.
func referenceRun(t *testing.T, grid *Grid, blocks [][]byte) *Result {
	t.Helper()
	points, err := grid.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	comps := facile.ComponentNames()
	reg := uarch.Default()
	// predict returns a block's rounded prediction and bottleneck flags.
	predict := func(cfg *uarch.Config, code []byte) (float64, []bool, error) {
		block, err := bb.Build(cfg, code)
		if err != nil {
			return 0, nil, err
		}
		p := core.NewAnalysis().Predict(block, core.TPL, core.Options{})
		bn := make([]bool, len(comps))
		p.EachBound(func(c core.Component, _ float64, bottleneck bool) { bn[c] = bottleneck })
		return math.Round(p.TP*100) / 100, bn, nil
	}
	base, err := reg.ByName(grid.Base)
	if err != nil {
		t.Fatal(err)
	}
	n := len(blocks)
	res := &Result{Base: grid.Base, Mode: facile.Loop, Blocks: n, Points: len(points)}
	baseTP := make([]float64, n)
	baseBn := make([]int, len(comps))
	logSum := 0.0
	for i, code := range blocks {
		tp, bn, err := predict(base, code)
		if err != nil {
			t.Fatalf("base block %d: %v", i, err)
		}
		baseTP[i] = tp
		logSum += math.Log(tp)
		for c, b := range bn {
			if b {
				baseBn[c]++
			}
		}
	}
	res.BaseGeomeanCycles = round4(math.Exp(logSum / float64(n)))
	for c, name := range comps {
		res.BaseRates = append(res.BaseRates, ComponentRate{Component: name, Pct: pct(baseBn[c], n)})
	}
points:
	for _, pt := range points {
		cfg, err := reg.DeriveConfig(pt.Name, grid.Base, pt.Overlay)
		if err != nil {
			res.Failed = append(res.Failed, FailedVariant{Name: pt.Name, Overlay: pt.Overlay, Error: err.Error()})
			continue
		}
		varBn := make([]int, len(comps))
		sum := 0.0
		for i, code := range blocks {
			tp, bn, err := predict(cfg, code)
			if err != nil {
				res.Failed = append(res.Failed, FailedVariant{Name: pt.Name, Overlay: pt.Overlay, Error: err.Error()})
				continue points
			}
			sum += math.Log(baseTP[i] / tp)
			for c, b := range bn {
				if b {
					varBn[c]++
				}
			}
		}
		row := VariantResult{Name: pt.Name, Overlay: pt.Overlay, GeomeanSpeedup: round4(math.Exp(sum / float64(n)))}
		for c, name := range comps {
			bp, vp := pct(baseBn[c], n), pct(varBn[c], n)
			row.Shifts = append(row.Shifts, ComponentShift{Component: name, BasePct: bp, VariantPct: vp, DeltaPP: round2(vp - bp)})
		}
		res.Variants = append(res.Variants, row)
	}
	return res
}

// TestRunMatchesFreshReference: the block-major sweep, whose batches keep a
// block's decode, text and precedence solve across the design points of
// one block, returns at 1, 2 and 4 workers exactly what a pair-by-pair
// reference with nothing shared returns. The grid mixes a front-end axis
// with axes that change the precedence solve's input (load_latency), the descriptors (move_elim_gpr, gen) and the fusion
// marks (macro_fusion). FMA support follows the fma port assignment, not
// gen, so the pair of fma axes removes it: two of its combinations fail to
// derive, and one fails on the FMA block.
func TestRunMatchesFreshReference(t *testing.T) {
	grid, err := ParseGrid([]byte(`{"base":"SKL","axes":[
		{"param":"issue_width","values":[3,6]},
		{"param":"load_latency","values":[4,5]},
		{"param":"move_elim_gpr","values":[false,true]},
		{"param":"macro_fusion","values":[false,true]},
		{"param":"gen","values":["IVB","SKL"]},
		{"param":"fma_latency","values":[0,4]},
		{"param":"role_ports.fma","values":[[],[0,1]]}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for _, g := range bhive.GenerateBlocks(11, 24) {
		blocks = append(blocks, g.LoopCode)
	}
	blocks = append(blocks,
		asm.MustEncodeBlock([]asm.Instr{
			asm.Mk(x86.VFMADD231PS, 128, asm.R(x86.X0), asm.R(x86.X1), asm.R(x86.X2)),
			asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
		}),
		// A second FMA block in the same group, failing with another text:
		// a point's failure must name the first block it fails on.
		asm.MustEncodeBlock([]asm.Instr{
			asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX)),
			asm.Mk(x86.VFMADD231PD, 128, asm.R(x86.X3), asm.R(x86.X4), asm.R(x86.X5)),
			asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
		}),
		asm.MustEncodeBlock([]asm.Instr{
			asm.Mk(x86.MOV, 64, asm.R(x86.RBX), asm.R(x86.RAX)),
			asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RBX, 8)),
			asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.R(x86.RDX)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
		}),
	)
	// The first block again, so a block repeats after others.
	blocks = append(blocks, blocks[0])
	want := referenceRun(t, grid, blocks)
	onBlock := 0
	for _, f := range want.Failed {
		if strings.HasPrefix(f.Error, "bb:") {
			onBlock++
		}
	}
	if len(want.Variants) == 0 || onBlock == 0 || onBlock == len(want.Failed) {
		t.Fatalf("reference has %d variants and %d failures, %d of them on a block; the grid must give all three kinds",
			len(want.Variants), len(want.Failed), onBlock)
	}
	for _, workers := range []int{1, 2, 4} {
		eng, err := facile.NewEngine(facile.EngineConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), eng, grid, Workload{Blocks: blocks, Mode: facile.Loop}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.BaseRates, want.BaseRates) || got.BaseGeomeanCycles != want.BaseGeomeanCycles {
			t.Fatalf("workers=%d: base differs from the reference", workers)
		}
		rows := make(map[string]VariantResult, len(want.Variants))
		for _, v := range want.Variants {
			rows[v.Name] = v
		}
		if len(got.Variants) != len(want.Variants) {
			t.Fatalf("workers=%d: %d variants, reference %d", workers, len(got.Variants), len(want.Variants))
		}
		for _, v := range got.Variants {
			w, ok := rows[v.Name]
			w.Rank = v.Rank
			if !ok || !reflect.DeepEqual(v, w) {
				t.Fatalf("workers=%d: row %s\n%+v\nreference\n%+v", workers, v.Name, v, w)
			}
		}
		failed := make(map[string]FailedVariant, len(want.Failed))
		for _, f := range want.Failed {
			failed[f.Name] = f
		}
		if len(got.Failed) != len(want.Failed) {
			t.Fatalf("workers=%d: %d failed points, reference %d", workers, len(got.Failed), len(want.Failed))
		}
		for _, f := range got.Failed {
			if w, ok := failed[f.Name]; !ok || !reflect.DeepEqual(f, w) {
				t.Fatalf("workers=%d: failed point %s: %+v, reference %+v", workers, f.Name, f, w)
			}
		}
	}
}
