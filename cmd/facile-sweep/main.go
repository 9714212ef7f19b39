// Command facile-sweep explores a microarchitecture design space: it
// enumerates a parameter grid as ephemeral variants of a base arch (derived,
// never registered), analyzes a workload of basic blocks on every variant,
// and prints the ranked frontier — geomean speedup versus the base plus the
// per-component bottleneck shifts that explain each win.
//
// Usage:
//
//	facile-sweep -grid grid.json [-blocks blocks.hex] [flags]
//	facile-sweep -grid testdata/sweep/skl_frontier.json -gen-blocks 256 -top 10
//
// The grid is JSON (see internal/sweep.Grid):
//
//	{
//	  "base": "SKL",
//	  "mode": "loop",
//	  "axes": [
//	    {"param": "issue_width", "values": [4, 5, 6]},
//	    {"param": "lsd_enabled", "values": [false, true]}
//	  ]
//	}
//
// The workload comes from -blocks (one hex-encoded block per line; '#'
// comments and blank lines are skipped) or, when -blocks is not given, from
// the deterministic built-in generator (-gen-blocks/-gen-seed; loop-mode
// sweeps use the branch-terminated block variants). The report is
// byte-deterministic: the same grid and workload produce identical output at
// every -workers value. -json emits the machine-readable result instead of
// text. SIGINT/SIGTERM cancel the sweep cleanly.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"facile"
	"facile/internal/bhive"
	"facile/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "facile-sweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("facile-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gridPath = fs.String("grid", "", "design-space grid JSON file (required)")
		blocks   = fs.String("blocks", "", "workload file: one hex-encoded basic block per line")
		genN     = fs.Int("gen-blocks", 256, "generated workload size when -blocks is not given")
		genSeed  = fs.Int64("gen-seed", 42, "generated workload seed")
		mode     = fs.String("mode", "", "throughput notion: loop/tpl or unroll/tpu (default: the grid's mode, else loop)")
		workers  = fs.Int("workers", 0, "analyses run at once (0 = GOMAXPROCS); the report bytes do not depend on it")
		top      = fs.Int("top", 20, "frontier rows to print (0 = all)")
		jsonOut  = fs.Bool("json", false, "emit the machine-readable JSON result instead of text")
		archDir  = fs.String("arch-dir", "", "load extra *.json microarchitecture specs from this directory first")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *gridPath == "" {
		return fmt.Errorf("-grid is required")
	}
	if *archDir != "" {
		if _, err := facile.LoadArchDir(*archDir); err != nil {
			return err
		}
	}

	data, err := os.ReadFile(*gridPath)
	if err != nil {
		return err
	}
	grid, err := sweep.ParseGrid(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *gridPath, err)
	}
	m, err := grid.ResolveMode()
	if err != nil {
		return fmt.Errorf("%s: %w", *gridPath, err)
	}
	if *mode != "" {
		if m, err = facile.ParseMode(*mode); err != nil {
			return err
		}
	}

	var wl sweep.Workload
	wl.Mode = m
	if *blocks != "" {
		wl.Blocks, err = readBlocks(*blocks)
		if err != nil {
			return err
		}
	} else {
		if *genN <= 0 {
			return fmt.Errorf("-gen-blocks must be positive (got %d)", *genN)
		}
		wl.Blocks = generateBlocks(*genSeed, *genN, m)
	}

	eng, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		return err
	}
	res, err := sweep.Run(ctx, eng, grid, wl, sweep.Options{Workers: *workers})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	_, err = io.WriteString(stdout, res.Text(*top))
	return err
}

// readBlocks loads a hex workload file: one block per line, '#' comments and
// blank lines skipped.
func readBlocks(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		code, err := hex.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("%s: line %d: bad hex block: %v", path, line, err)
		}
		out = append(out, code)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no blocks", path)
	}
	return out, nil
}

// generateBlocks produces the deterministic built-in workload; loop-mode
// sweeps use the branch-terminated variants the LSD/DSB paths care about.
func generateBlocks(seed int64, n int, m facile.Mode) [][]byte {
	gen := bhive.Generate(seed, n)
	out := make([][]byte, n)
	for i, b := range gen {
		if m == facile.Loop {
			out[i] = b.LoopCode
		} else {
			out[i] = b.Code
		}
	}
	return out
}
