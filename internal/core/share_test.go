package core_test

import (
	"context"
	"os"
	"testing"

	"facile"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/sweep"
)

// countComputed counts, per component, the bounds computed while it is
// installed.
func countComputed(t *testing.T) *[core.NumComponents]int {
	var n [core.NumComponents]int
	core.SetComponentHook(func(c core.Component) { n[c]++ })
	t.Cleanup(func() { core.SetComponentHook(nil) })
	return &n
}

// sharedComponents are the components whose fields no axis of the
// skl_frontier grid sweeps.
var sharedComponents = []core.Component{core.Predec, core.Ports, core.Precedence}

// TestReuseShare measures what computing a bound once per distinct input
// buys: a sweep of the committed skl_frontier grid (108 points, loop mode,
// one worker) computes each of the bounds whose fields it does not sweep
// at most once per block, in the block's base analysis — no axis of the
// grid changes a descriptor, the predecode width or the load latency, so
// every point's entry for those bounds takes the base's — and a cold
// stream of distinct blocks computes each of them once per analysis that
// combines it.
func TestReuseShare(t *testing.T) {
	data, err := os.ReadFile("../../testdata/sweep/skl_frontier.json")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sweep.ParseGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	gen := bhive.GenerateBlocks(1, 64)
	wl := sweep.Workload{Mode: facile.Loop}
	for _, g := range gen {
		wl.Blocks = append(wl.Blocks, g.LoopCode)
	}
	eng, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := countComputed(t)
	if _, err := sweep.Run(context.Background(), eng, grid, wl, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range sharedComponents {
		t.Logf("skl_frontier sweep, %v: %d bounds computed for %d blocks", c, n[c], len(wl.Blocks))
		if n[c] > len(wl.Blocks) {
			t.Errorf("skl_frontier sweep, %v: %d bounds computed for %d blocks, want at most one each", c, n[c], len(wl.Blocks))
		}
	}

	// A cold stream in the cold-stream benchmark's shape: distinct blocks
	// over three arches, alternating unroll and loop mode.
	eng, err = facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	*n = [core.NumComponents]int{}
	var want [core.NumComponents]int
	archs := []string{"SNB", "SKL", "ICL"}
	comps := facile.ComponentNames()
	for i, g := range bhive.GenerateBlocks(2, 600) {
		req := facile.Request{Code: g.Code, Arch: archs[i%len(archs)], Mode: facile.Unroll}
		if i%2 == 1 {
			req.Code, req.Mode = g.LoopCode, facile.Loop
		}
		a, err := eng.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ci := 0
		for _, cb := range a.Bounds {
			for comps[ci] != cb.Component {
				ci++
			}
			want[ci]++
		}
	}
	for _, c := range sharedComponents {
		t.Logf("cold stream, %v: %d bounds computed", c, n[c])
		if n[c] != want[c] {
			t.Errorf("cold stream, %v: %d bounds computed for %d analyses that combine it", c, n[c], want[c])
		}
	}
}
