package cycleratio

import (
	"errors"
	"slices"
)

// Edge is a directed edge with a latency weight and an iteration count.
type Edge struct {
	From, To int
	W        float64 // latency weight
	T        int     // iteration count (transit time), >= 0
}

// Graph is a directed multigraph on nodes 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// AddEdge appends an edge.
func (g *Graph) AddEdge(from, to int, w float64, t int) {
	g.Edges = append(g.Edges, Edge{From: from, To: to, W: w, T: t})
}

// ErrZeroTransitCycle indicates a cycle whose total iteration count is zero
// (which would imply an unbounded ratio and a malformed dependence graph).
var ErrZeroTransitCycle = errors.New("cycleratio: cycle with zero total transit time")

// Result describes the maximum-ratio cycle.
type Result struct {
	Ratio float64
	// Cycle is a list of edge indices (into Graph.Edges) forming a critical
	// cycle, in traversal order. Empty when the graph has no cycle.
	Cycle []int
	// HasCycle is false when the graph is acyclic (Ratio is 0).
	HasCycle bool
}

// MaxRatioReference computes the maximum cycle ratio with the parametric
// binary-search solver only (used to cross-check Howard's algorithm).
func MaxRatioReference(g *Graph) (float64, error) {
	s := NewSolver()
	s.prune(g)
	core := &s.pruned
	if core.N == 0 {
		return 0, nil
	}
	if s.hasZeroTransitCycle(core) {
		return 0, ErrZeroTransitCycle
	}
	return maxRatioBF(core).Ratio, nil
}

// maxRatioBF computes the maximum cycle ratio by bisection on λ with
// positive-cycle detection on the reweighted graph w' = w − λ·t. The last
// positive cycle the bisection finds lies within its final bracket, far
// closer to the optimum than any two distinct ratios of a small integer
// graph lie to each other, so it is a critical cycle: the result is that
// cycle and its exact w/t. Weights are assumed nonnegative; a graph whose
// cycles all weigh 0 reports any one of them.
func maxRatioBF(g *Graph) Result {
	lo, hi := 0.0, 1.0
	for _, e := range g.Edges {
		if e.W > 0 {
			hi += e.W
		}
	}
	var best []int
	for iter := 0; iter < 64; iter++ {
		mid := (lo + hi) / 2
		if c := positiveCycle(g, mid); c != nil {
			lo, best = mid, c
		} else {
			hi = mid
		}
	}
	if best == nil {
		// Every cycle is positive at λ = −1, since each spans an iteration.
		best = positiveCycle(g, -1)
	}
	if best == nil {
		return Result{Ratio: (lo + hi) / 2, HasCycle: true}
	}
	var w float64
	var t int
	for _, ei := range best {
		w += g.Edges[ei].W
		t += g.Edges[ei].T
	}
	return Result{Ratio: w / float64(t), Cycle: best, HasCycle: true}
}

// positiveCycle returns the edges, in traversal order, of a strictly
// positive cycle of the graph reweighted by λ, or nil when there is none
// (Bellman-Ford from a virtual source to every node, maximizing). A
// relaxation in round N means a positive cycle, and N predecessor steps
// back from the node it relaxed land on one.
func positiveCycle(g *Graph, lambda float64) []int {
	const eps = 1e-12
	dist := make([]float64, g.N) // the virtual source reaches every node with 0
	pred := make([]int, g.N)
	for i := range pred {
		pred[i] = -1
	}
	last := -1
	for round := 0; round < g.N; round++ {
		last = -1
		for i, e := range g.Edges {
			w := e.W - lambda*float64(e.T)
			if dist[e.From]+w > dist[e.To]+eps {
				dist[e.To] = dist[e.From] + w
				pred[e.To] = i
				last = e.To
			}
		}
		if last < 0 {
			return nil
		}
	}
	v := last
	for i := 0; i < g.N; i++ {
		if pred[v] < 0 {
			return nil
		}
		v = g.Edges[pred[v]].From
	}
	var cyc []int
	for u := v; ; {
		ei := pred[u]
		cyc = append(cyc, ei)
		if u = g.Edges[ei].From; u == v {
			break
		}
	}
	slices.Reverse(cyc)
	return cyc
}
