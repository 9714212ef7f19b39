//go:build !race

package cycleratio_test

import (
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/cycleratio"
	"facile/internal/uarch"
)

// TestMaxRatioWarmZeroAllocs: a Solver that has seen the largest graph
// answers every graph without allocating.
func TestMaxRatioWarmZeroAllocs(t *testing.T) {
	var graphs []*cycleratio.Graph
	for _, g := range bhive.GenerateBlocks(1, 50) {
		block, err := bb.Build(uarch.MustByName("SKL"), g.LoopCode)
		if err != nil {
			t.Fatal(err)
		}
		graph, _ := core.BuildDependenceGraph(block)
		graphs = append(graphs, graph)
	}
	s := cycleratio.NewSolver()
	for _, g := range graphs {
		if _, err := s.MaxRatio(g); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, g := range graphs {
			s.MaxRatio(g)
		}
	}); a != 0 {
		t.Fatalf("warm MaxRatio allocates %.1f times per pass", a)
	}
}
