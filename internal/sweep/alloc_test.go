//go:build !race

package sweep

import (
	"context"
	"encoding/json"
	"runtime/debug"
	"testing"

	"facile"
	"facile/internal/bhive"
)

// TestFactoredSweepZeroPerPairAllocs: on a warm engine — the base analyses
// served from the cache, the worker's block and analysis scratch grown — a
// factored sweep allocates per call, for its points, rows and tables, and
// nothing per (point, block) pair: an 8-point grid allocates the same over
// 128 blocks (1,024 pairs) as over 1,024 blocks (8,192 pairs). The
// collector is off while it counts: a collection empties the sync.Pools
// the JSON decoder draws from, and the larger workload's garbage brings
// one on more often.
func TestFactoredSweepZeroPerPairAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	grid := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{json.RawMessage("3"), json.RawMessage("6")}},
		{Param: "lsd_enabled", Values: []json.RawMessage{json.RawMessage("false"), json.RawMessage("true")}},
		{Param: "load_latency", Values: []json.RawMessage{json.RawMessage("5"), json.RawMessage("9")}},
	}}
	eng, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := bhive.GenerateBlocks(4, 1024)
	measure := func(n int) float64 {
		wl := Workload{Blocks: make([][]byte, n), Mode: facile.Loop}
		for i := range wl.Blocks {
			wl.Blocks[i] = gen[i].LoopCode
		}
		run := func() {
			res, err := Run(context.Background(), eng, grid, wl, Options{Workers: 1})
			if err != nil || len(res.Variants) != grid.Points() {
				t.Fatalf("sweep: %v, %d variants", err, len(res.Variants))
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	aSmall, aLarge := measure(128), measure(1024)
	if aSmall != aLarge {
		t.Errorf("a warm sweep allocates %.1f/call over 1,024 pairs, %.1f/call over 8,192 (want equal: none per pair)", aSmall, aLarge)
	}
	t.Logf("a warm 8-point sweep allocates %.1f/call", aLarge)
}
