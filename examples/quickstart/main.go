// Quickstart: analyze a basic block on several microarchitectures with the
// public facile API — one Engine.Analyze request per arch, each returning
// prediction, bound breakdown, and sorted counterfactual speedups together.
package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"log"

	"facile"
)

func main() {
	// A small reduction loop body:
	//   add rax, [rdi]      ; accumulate
	//   add rdi, 8          ; advance pointer
	//   dec rcx             ; loop counter
	//   jne .               ; back edge (macro-fuses with dec)
	code, err := hex.DecodeString("480307" + "4883c708" + "48ffc9" + "75f2")
	if err != nil {
		log.Fatal(err)
	}

	lines, err := facile.Disassemble(code)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Block:")
	for i, line := range lines {
		fmt.Printf("  %d: %s\n", i, line)
	}

	// One engine serves all microarchitectures; the batch call fans the
	// per-arch analyses across a worker pool and returns them in order.
	// DetailSpeedups materializes the counterfactual table alongside each
	// prediction — same single bound computation either way.
	engine, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	archs := engine.Archs()
	reqs := make([]facile.Request, len(archs))
	for i, arch := range archs {
		reqs[i] = facile.Request{Code: code, Arch: arch, Mode: facile.Loop, Detail: facile.DetailSpeedups}
	}

	fmt.Println("\nPredicted loop throughput (cycles/iteration):")
	for i, res := range engine.AnalyzeBatch(context.Background(), reqs) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		pred := res.Analysis.Prediction
		// Speedups are sorted descending, so the first entry is the most
		// profitable component to idealize on that arch.
		top := res.Analysis.Speedups[0]
		fmt.Printf("  %-4s %5.2f   front end: %-6s bottleneck: %-12v idealize %s -> %.2fx\n",
			archs[i], pred.CyclesPerIteration, pred.FrontEndSource, pred.Bottlenecks,
			top.Component, top.Factor)
	}

	// Cross-check one prediction against the reference simulator. Simulate
	// decodes the block afresh and does not touch the analysis cache.
	sim, err := engine.Simulate(code, "SKL", facile.Loop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nReference simulator (SKL): %.2f cycles/iteration\n", sim)
}
