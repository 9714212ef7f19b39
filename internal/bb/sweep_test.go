package bb_test

import (
	"context"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"facile"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/sweep"
)

// TestSweepDecodesOnce: a cold whole-grid sweep decodes each block once —
// in its base analysis, whose build the block's tables keep — and derives
// its descriptors once per build entry, the first of which agrees with the
// base on the descriptors: the committed skl_frontier grid has one build
// entry, and a grid that sweeps macro-fusion two.
func TestSweepDecodesOnce(t *testing.T) {
	data, err := os.ReadFile("../../testdata/sweep/skl_frontier.json")
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := sweep.ParseGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	fusion := &sweep.Grid{Base: "SKL", Axes: []sweep.Axis{
		{Param: "macro_fusion", Values: []json.RawMessage{json.RawMessage("true"), json.RawMessage("false")}},
		{Param: "issue_width", Values: []json.RawMessage{json.RawMessage("3"), json.RawMessage("6")}},
	}}
	var decodes, derivations atomic.Int64
	bb.SetBuildHook(func(decoded bool) {
		derivations.Add(1)
		if decoded {
			decodes.Add(1)
		}
	})
	t.Cleanup(func() { bb.SetBuildHook(nil) })
	wl := sweep.Workload{Mode: facile.Loop}
	for _, g := range bhive.GenerateBlocks(11, 40) {
		wl.Blocks = append(wl.Blocks, g.LoopCode)
	}
	nb := int64(len(wl.Blocks))
	for _, c := range []struct {
		name    string
		grid    *sweep.Grid
		entries int64
	}{{"skl_frontier", frontier, 1}, {"macro-fusion", fusion, 2}} {
		for _, workers := range []int{1, 2} {
			eng, err := facile.NewEngine(facile.EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			decodes.Store(0)
			derivations.Store(0)
			if _, err := sweep.Run(context.Background(), eng, c.grid, wl, sweep.Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if d, v := decodes.Load(), derivations.Load(); d != nb || v != nb*c.entries {
				t.Errorf("%s, %d workers: %d decodes and %d descriptor derivations for %d blocks, want %d and %d",
					c.name, workers, d, v, nb, nb, nb*c.entries)
			}
		}
	}
}
