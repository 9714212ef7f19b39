// Bottleneck-report: demonstrate Facile's interpretability on blocks with
// deliberately different bottlenecks — the use case of the paper's §6.4.
// Each block goes through one Engine.Analyze call at DetailFull, whose
// Analysis names the limiting pipeline component, marks the responsible
// instructions, and quantifies the counterfactual gain of idealizing each
// component — as the rendered ReportText (below) or as the structured
// fields it is rendered from.
package main

import (
	"context"
	"fmt"
	"log"

	"facile"
	"facile/internal/asm"
	"facile/internal/x86"
)

func main() {
	cases := []struct {
		title  string
		mode   facile.Mode
		instrs []asm.Instr
	}{
		{
			title: "dependency-chain-bound: pointer chase",
			mode:  facile.Loop,
			instrs: []asm.Instr{
				asm.Mk(x86.MOV, 64, asm.R(x86.RAX), asm.M(x86.RAX, 0)),
				asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
				asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-9)),
			},
		},
		{
			title: "port-bound: three multiplies per iteration",
			mode:  facile.Loop,
			instrs: []asm.Instr{
				asm.Mk(x86.IMUL, 64, asm.R(x86.RAX), asm.R(x86.RSI)),
				asm.Mk(x86.IMUL, 64, asm.R(x86.RBX), asm.R(x86.RSI)),
				asm.Mk(x86.IMUL, 64, asm.R(x86.RDX), asm.R(x86.RSI)),
				asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
				asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-16)),
			},
		},
		{
			title: "predecode-bound: length-changing prefixes (unrolled)",
			mode:  facile.Unroll,
			instrs: []asm.Instr{
				asm.Mk(x86.ADD, 16, asm.R(x86.RAX), asm.I(0x1234)),
				asm.Mk(x86.ADD, 16, asm.R(x86.RBX), asm.I(0x2345)),
				asm.Mk(x86.ADD, 16, asm.R(x86.RDX), asm.I(0x3456)),
			},
		},
		{
			title: "issue-bound: wide independent ALU work",
			mode:  facile.Loop,
			instrs: []asm.Instr{
				asm.Mk(x86.MOV, 64, asm.R(x86.RAX), asm.I(1)),
				asm.Mk(x86.MOV, 64, asm.R(x86.RBX), asm.I(2)),
				asm.Mk(x86.MOV, 64, asm.R(x86.RDX), asm.I(3)),
				asm.Mk(x86.MOV, 64, asm.R(x86.RSI), asm.I(4)),
				asm.Mk(x86.MOV, 64, asm.R(x86.RDI), asm.I(5)),
				asm.Mk(x86.MOV, 64, asm.R(x86.R8), asm.I(6)),
				asm.Mk(x86.MOV, 64, asm.R(x86.R9), asm.I(7)),
				asm.Mk(x86.MOV, 64, asm.R(x86.R10), asm.I(8)),
				asm.Mk(x86.TEST, 64, asm.R(x86.R15), asm.R(x86.R15)),
				asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-60)),
			},
		},
	}

	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cases {
		code, err := asm.EncodeBlock(c.instrs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== %s ====\n", c.title)
		ana, err := engine.Analyze(context.Background(), facile.Request{
			Code: code, Arch: "SKL", Mode: c.mode, Detail: facile.DetailFull,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(ana.ReportText)
		// The same analysis answers structured questions without another
		// engine call: the report text, the bottleneck list and the sorted
		// speedup list are views of one cached bound computation.
		top := ana.Speedups[0]
		fmt.Printf("(structured: primary=%s, best counterfactual: %s %.2fx)\n\n",
			ana.Prediction.Bottlenecks[0], top.Component, top.Factor)
	}
	// Analyses (and their rendered reports) are memoized alongside the
	// cached predictions: re-analyzing any block above is a pure cache hit.
	st := engine.Stats()
	fmt.Printf("engine cache: %d entries, %d misses\n", st.Entries, st.Misses)
}
