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

// reuseCounts counts, per component that keeps its last result, the bounds
// computed afresh ([0]) and reused ([1]) while it is installed.
type reuseCounts [core.NumComponents][2]int

func countReuse(t *testing.T) *reuseCounts {
	var n reuseCounts
	core.SetReuseHook(func(c core.Component, reused bool) {
		if reused {
			n[c][1]++
		} else {
			n[c][0]++
		}
	})
	t.Cleanup(func() { core.SetReuseHook(nil) })
	return &n
}

// share returns c's reused share of its bounds and their count.
func (n *reuseCounts) share(c core.Component) (float64, int) {
	total := n[c][0] + n[c][1]
	if total == 0 {
		return 0, 0
	}
	return float64(n[c][1]) / float64(total), total
}

var keptComponents = []core.Component{core.Predec, core.Ports, core.Precedence}

// TestReuseShare measures what computing a bound once per distinct input
// buys: a sweep of the committed skl_frontier grid (108 points, loop mode,
// one worker) computes each keeping component's bound at most once per
// block, in its base pass — no axis of the grid changes a descriptor, the
// predecode width or the load latency, so every point's entry for those
// bounds reads what the base reads — and a cold stream of distinct blocks
// reuses none of its bounds, every block being new.
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
	n := countReuse(t)
	if _, err := sweep.Run(context.Background(), eng, grid, wl, sweep.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range keptComponents {
		fresh := n[c][0]
		t.Logf("skl_frontier sweep, %v: %d bounds computed for %d blocks", c, fresh, len(wl.Blocks))
		if fresh > len(wl.Blocks) {
			t.Errorf("skl_frontier sweep, %v: %d bounds computed for %d blocks, want at most one each", c, fresh, len(wl.Blocks))
		}
	}

	// A cold stream in the cold-stream benchmark's shape: distinct blocks
	// over three arches, alternating unroll and loop mode.
	eng, err = facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	*n = reuseCounts{}
	archs := []string{"SNB", "SKL", "ICL"}
	for i, g := range bhive.GenerateBlocks(2, 600) {
		req := facile.Request{Code: g.Code, Arch: archs[i%len(archs)], Mode: facile.Unroll}
		if i%2 == 1 {
			req.Code, req.Mode = g.LoopCode, facile.Loop
		}
		if _, err := eng.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range keptComponents {
		s, total := n.share(c)
		t.Logf("cold stream, %v: %d bounds, %.1f%% reused", c, total, 100*s)
		if s != 0 {
			t.Errorf("cold stream, %v: %.1f%% of %d bounds reused, want none", c, 100*s, total)
		}
	}
}
