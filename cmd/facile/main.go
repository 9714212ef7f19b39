// Command facile predicts the throughput of an x86-64 basic block and
// explains its bottlenecks — the CLI front end of the library, mirroring the
// role of facile.py in the original implementation.
//
// Usage:
//
//	facile -arch SKL -mode loop -hex "4801d8480fafc3"
//	facile -arch RKL -mode unroll -file block.bin -explain
//	facile -arch SKL -hex "..." -speedups
//	facile -arch SKL -hex "..." -json | jq .speedups
//	facile -arch-dir ./myarchs -arch SKL-LSD -hex "..."
//	facile -list
//
// The input block is raw machine code, given as a hex string (-hex) or a
// binary file (-file). Every query is one Engine.Analyze call; -json emits
// the resulting Analysis (prediction, ordered bound breakdown, sorted
// counterfactual speedups, report_text) as JSON, the same document
// POST /v1/analyze returns at detail=full. -arch-dir
// loads additional microarchitecture spec files (*.json, full specs or
// base+overlay variants; see the README's "Custom microarchitectures")
// before anything else runs, so hypothetical design points are predictable
// without recompiling.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"facile"
)

func main() {
	var (
		arch     = flag.String("arch", "SKL", "target microarchitecture (see -list)")
		archDir  = flag.String("arch-dir", "", "directory of additional microarchitecture spec files (*.json)")
		mode     = flag.String("mode", "loop", `throughput notion: "loop" (TPL) or "unroll" (TPU)`)
		hexStr   = flag.String("hex", "", "basic block as a hex string")
		file     = flag.String("file", "", "basic block as a binary file")
		explain  = flag.Bool("explain", false, "print the full bottleneck report")
		speedups = flag.Bool("speedups", false, "print the counterfactual per-component speedups")
		jsonOut  = flag.Bool("json", false, "emit the full structured Analysis as JSON")
		sim      = flag.Bool("simulate", false, "also run the reference cycle-accurate simulator")
		list     = flag.Bool("list", false, "list supported microarchitectures and exit")
	)
	flag.Parse()

	if *archDir != "" {
		if _, err := facile.LoadArchDir(*archDir); err != nil {
			fatal(err)
		}
	}

	if *list {
		for _, info := range facile.ArchInfos() {
			extra := info.CPU
			if extra == "" {
				extra = fmt.Sprintf("(custom: gen %s, %d-wide, %d ports)",
					info.Gen, info.IssueWidth, info.NumPorts)
			}
			year := "    "
			if info.Released != 0 {
				year = fmt.Sprintf("%d", info.Released)
			}
			fmt.Printf("%-8s %-14s %s  %s\n", info.Name, info.FullName, year, extra)
		}
		return
	}

	code, err := readBlock(*hexStr, *file)
	if err != nil {
		fatal(err)
	}
	m, err := facile.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}

	// Pick the cheapest detail the requested outputs need; -json always
	// carries the full analysis.
	detail := facile.DetailPrediction
	if *speedups {
		detail = facile.DetailSpeedups
	}
	if *explain || *jsonOut {
		detail = facile.DetailFull
	}

	// One engine, one Analyze call: prediction, report, and speedups all
	// come from the same cached entry even when several outputs are
	// requested.
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{*arch}})
	if err != nil {
		fatal(err)
	}
	ana, err := engine.Analyze(context.Background(), facile.Request{
		Code: code, Arch: *arch, Mode: m, Detail: detail,
	})
	if err != nil {
		fatal(err)
	}

	switch {
	case *jsonOut:
		if err := writeJSON(os.Stdout, ana); err != nil {
			fatal(err)
		}
	case *explain:
		fmt.Print(ana.ReportText)
	default:
		pred := ana.Prediction
		fmt.Printf("%.2f cycles/iteration (%s, %s)\n", pred.CyclesPerIteration, pred.Arch, pred.Mode)
		if len(pred.Bottlenecks) > 0 {
			fmt.Printf("bottleneck: %s\n", strings.Join(pred.Bottlenecks, ", "))
		}
	}

	if *speedups && !*explain && !*jsonOut { // those outputs already include the table
		fmt.Println("counterfactual speedups (component made infinitely fast, most profitable first):")
		for _, sp := range ana.Speedups {
			fmt.Printf("  %-11s %.2fx\n", sp.Component, sp.Factor)
		}
	}

	if *sim {
		tp, err := engine.Simulate(code, *arch, m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reference simulator: %.2f cycles/iteration\n", tp)
	}
}

// writeJSON prints ana as one indented JSON document and a newline: the
// bytes a json.Encoder with a two-space indent writes.
func writeJSON(w io.Writer, ana *facile.Analysis) error {
	b, err := ana.AppendJSON(nil, "")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func readBlock(hexStr, file string) ([]byte, error) {
	switch {
	case hexStr != "":
		clean := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\n' || r == '\t' {
				return -1
			}
			return r
		}, hexStr)
		return hex.DecodeString(clean)
	case file != "":
		return os.ReadFile(file)
	default:
		return nil, fmt.Errorf("provide a basic block via -hex or -file (or use -list)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "facile:", err)
	os.Exit(1)
}
