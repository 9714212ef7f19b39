package cycleratio_test

import (
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/cycleratio"
	"facile/internal/uarch"
)

// TestFallbackIsExact: bhive seed-1 block 5102 on ICL, 24 instructions, is
// one of the dependence graphs on which Howard's policy iteration, which
// this package used to run, did not converge and fell back to a bisection.
// The solver returns exactly 14 on it, and so does the enumeration of the
// graph's simple cycles.
func TestFallbackIsExact(t *testing.T) {
	block, err := bb.Build(uarch.MustByName("ICL"), bhive.GenerateBlocks(1, 5103)[5102].Code)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Insts) != 24 {
		t.Fatalf("block has %d instructions, want 24", len(block.Insts))
	}
	g, _ := core.BuildDependenceGraph(block)
	res, err := cycleratio.NewSolver().MaxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCycle || res.Ratio != 14 {
		t.Fatalf("MaxRatio = %v (cycle %v), want exactly 14 with a cycle", res.Ratio, res.HasCycle)
	}
	checkEnumerated(t, cycleratio.NewSolver(), g)
}
