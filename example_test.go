package facile_test

import (
	"context"
	"encoding/hex"
	"fmt"
	"log"

	"facile"
)

// ExampleEngine_Analyze is the canonical entrypoint: one typed Request in,
// one typed Analysis out. A single bound computation yields the prediction,
// the deterministic per-component breakdown, and (at DetailSpeedups and up)
// the counterfactual speedups sorted most-profitable first.
func ExampleEngine_Analyze() {
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		log.Fatal(err)
	}
	code, _ := hex.DecodeString("4801d8" + "480fafc3") // add rax,rbx; imul rax,rbx
	ana, err := engine.Analyze(context.Background(), facile.Request{
		Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailSpeedups,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f cycles/iteration on %s\n", ana.Prediction.CyclesPerIteration, ana.Prediction.Arch)
	for _, b := range ana.Bounds {
		mark := " "
		if b.Bottleneck {
			mark = "*"
		}
		fmt.Printf("%s %-11s %.2f\n", mark, b.Component, b.Cycles)
	}
	top := ana.Speedups[0]
	fmt.Printf("idealizing %s would give %.2fx\n", top.Component, top.Factor)
	// Output:
	// 4.00 cycles/iteration on SKL
	//   DSB         1.00
	//   Issue       0.50
	//   Ports       1.00
	// * Precedence  4.00
	// idealizing Precedence would give 4.00x
}

// ExampleDefaultEngine is the one-shot path: analyze a block against the
// process-wide shared engine. Use it for one-off queries; bulk workloads
// should construct their own Engine scoped to the arches they need.
func ExampleDefaultEngine() {
	code, _ := hex.DecodeString("4801d8" + "480fafc3") // add rax,rbx; imul rax,rbx
	ana, err := facile.DefaultEngine().Analyze(context.Background(), facile.Request{
		Code: code, Arch: "SKL", Mode: facile.Loop,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f cycles/iteration, bottleneck: %s\n",
		ana.Prediction.CyclesPerIteration, ana.Prediction.Bottlenecks[0])
	// Output:
	// 4.00 cycles/iteration, bottleneck: Precedence
}

// ExampleEngine_AnalyzeBatchN analyzes a batch across microarchitectures
// with one warm engine; out[i] always answers reqs[i].
func ExampleEngine_AnalyzeBatchN() {
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SNB", "SKL"}})
	if err != nil {
		log.Fatal(err)
	}
	code, _ := hex.DecodeString("4801d8480fafc3")
	reqs := []facile.Request{
		{Code: code, Arch: "SNB", Mode: facile.Loop},
		{Code: code, Arch: "SKL", Mode: facile.Loop},
		{Code: []byte{0xff}, Arch: "SKL", Mode: facile.Loop}, // undecodable
	}
	for i, res := range engine.AnalyzeBatchN(context.Background(), reqs, 0) {
		if res.Err != nil {
			fmt.Printf("%s: error\n", reqs[i].Arch)
			continue
		}
		fmt.Printf("%s: %.2f cycles/iteration\n", reqs[i].Arch, res.Analysis.Prediction.CyclesPerIteration)
	}
	// Output:
	// SNB: 4.00 cycles/iteration
	// SKL: 4.00 cycles/iteration
	// SKL: error
}

// ExampleEngine_Analyze_fullReport renders the full human-readable
// bottleneck report: the disassembly, every component bound, the bottleneck
// with its supporting instructions, and the counterfactual speedups.
func ExampleEngine_Analyze_fullReport() {
	code, _ := hex.DecodeString("4801d8480fafc3")
	ana, err := facile.DefaultEngine().Analyze(context.Background(), facile.Request{
		Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ana.ReportText)
	// Output:
	// Facile throughput report — SKL, TPL (loop)
	// Predicted: 4.00 cycles/iteration
	//
	// Block:
	//    0 D add rax, rbx
	//    1 D imul rax, rbx
	//
	// Component bounds (cycles/iteration):
	//     DSB             1.00
	//     Issue           0.50
	//     Ports           1.00
	//   * Precedence      4.00
	//   front end served by: DSB
	//
	// Primary bottleneck: Precedence
	//   loop-carried dependence chain through instructions [0 1] (marked D)
	//
	// Counterfactual speedups (component made infinitely fast):
	//   Predec      1.00x
	//   Dec         1.00x
	//   DSB         1.00x
	//   LSD         1.00x
	//   Issue       1.00x
	//   Ports       1.00x
	//   Precedence  4.00x
	//
}
