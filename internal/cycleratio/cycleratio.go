package cycleratio

import "errors"

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
	return maxRatioBF(core)
}

// maxRatioBF computes the maximum cycle ratio by bisection on λ with
// positive-cycle detection on the reweighted graph w' = w − λ·t.
func maxRatioBF(g *Graph) (float64, error) {
	lo, hi := 0.0, 1.0
	for _, e := range g.Edges {
		if e.W > 0 {
			hi += e.W
		}
	}
	for iter := 0; iter < 64; iter++ {
		mid := (lo + hi) / 2
		if hasPositiveCycle(g, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// hasPositiveCycle reports whether the graph reweighted by λ contains a
// strictly positive cycle (Bellman-Ford, maximizing).
func hasPositiveCycle(g *Graph, lambda float64) bool {
	const eps = 1e-12
	dist := make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		dist[i] = 0 // virtual source connected to all nodes with weight 0
	}
	for round := 0; round < g.N; round++ {
		changed := false
		for _, e := range g.Edges {
			w := e.W - lambda*float64(e.T)
			if dist[e.From]+w > dist[e.To]+eps {
				dist[e.To] = dist[e.From] + w
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}
