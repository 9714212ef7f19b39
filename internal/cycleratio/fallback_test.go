package cycleratio_test

import (
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/cycleratio"
	"facile/internal/uarch"
)

// TestFallbackIsExact: on a dependence graph where policy iteration does
// not converge — bhive seed-1 block 5102 on ICL, 24 instructions — the
// Bellman-Ford fallback returns the exact ratio 14 and a critical cycle
// whose own ratio is 14, not the bisection's approximation with no cycle.
func TestFallbackIsExact(t *testing.T) {
	block, err := bb.Build(uarch.MustByName("ICL"), bhive.GenerateBlocks(1, 5103)[5102].Code)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Insts) != 24 {
		t.Fatalf("block has %d instructions, want 24", len(block.Insts))
	}
	g, _ := core.BuildDependenceGraph(block)
	if cycleratio.HowardConverges(g) {
		t.Fatal("policy iteration converges; the test no longer reaches the fallback")
	}
	res, err := cycleratio.NewSolver().MaxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCycle || res.Ratio != 14 || len(res.Cycle) == 0 {
		t.Fatalf("MaxRatio = %v (cycle %v, %d edges), want exactly 14 with a cycle", res.Ratio, res.HasCycle, len(res.Cycle))
	}
	var w float64
	var iters int
	for i, ei := range res.Cycle {
		e := g.Edges[ei]
		if next := g.Edges[res.Cycle[(i+1)%len(res.Cycle)]]; e.To != next.From {
			t.Fatalf("edge %d of the cycle ends at %d, the next starts at %d", i, e.To, next.From)
		}
		w += e.W
		iters += e.T
	}
	if iters == 0 || w/float64(iters) != 14 {
		t.Fatalf("cycle ratio %v/%d, want 14", w, iters)
	}
	if r, err := cycleratio.MaxRatioReference(g); err != nil || r != 14 {
		t.Fatalf("MaxRatioReference = %v, %v, want exactly 14", r, err)
	}
}
