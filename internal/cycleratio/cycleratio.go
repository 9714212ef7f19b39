package cycleratio

import (
	"errors"
	"math"
	"slices"
)

// Edge is a directed edge with a latency weight and an iteration count.
type Edge struct {
	From, To int
	W        float64 // latency weight, an integer
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

// errEdge rejects an edge the integer solve cannot represent exactly.
var errEdge = errors.New("cycleratio: weight not an integer of magnitude at most 2^31, or negative transit")

// Result is the maximum cycle ratio of a graph.
type Result struct {
	Ratio float64
	// HasCycle is false when the graph is acyclic (Ratio is 0).
	HasCycle bool
}

// Solver holds MaxRatio's buffers, which grow to the largest graph seen, so
// a warm Solver answers without allocating. It is not safe for concurrent
// use.
type Solver struct {
	off, adj, indeg, order, node []int
	val, d                       []int64
}

// NewSolver returns an empty solver.
func NewSolver() *Solver { return new(Solver) }

// noPath marks a node no walk of the current length reaches.
const noPath = math.MinInt64 / 4

// MaxRatio returns the maximum cycle ratio of g, exactly: the largest
// Σ W / Σ T over its cycles, as one float64 division of two integers.
//
// It applies Karp's theorem to walks counted by their carried (T > 0)
// edges. An edge of transit t is t unit steps, the first carrying its
// weight; the summary nodes are the heads of the unit steps, m of them.
// D[k][v] is the heaviest walk of k unit steps ending at summary node v,
// starting at any summary node: each layer closes the previous one over
// the zero-transit edges in topological order, then takes one step. The
// ratio is the max over v of min over k < m of (D[m][v] − D[k][v]) / (m − k),
// compared by cross-multiplying.
func (s *Solver) MaxRatio(g *Graph) (Result, error) {
	n, edges := g.N, g.Edges
	// Zero-transit successors (edge indices) in CSR form: node v's are
	// adj[off[v]:off[v+1]]. node[v] is 1 + the summary node v heads, or 0.
	off, indeg, node := grown(&s.off, n+2), grown(&s.indeg, n), grown(&s.node, n)
	m := 0
	for _, e := range edges {
		if e.T < 0 || e.W != math.Trunc(e.W) || math.Abs(e.W) > 1<<31 {
			return Result{}, errEdge
		}
		switch {
		case e.T == 0:
			off[e.From+2]++
			indeg[e.To]++
		case node[e.To] == 0:
			m++
			node[e.To] = m
		}
	}
	for v := 2; v <= n+1; v++ {
		off[v] += off[v-1]
	}
	adj := grown(&s.adj, off[n+1])
	for i, e := range edges {
		if e.T == 0 {
			adj[off[e.From+1]] = i
			off[e.From+1]++
		}
	}
	order := s.order[:0]
	for v := range n {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, ei := range adj[off[order[i]]:off[order[i]+1]] {
			if to := edges[ei].To; indeg[to] == 1 {
				order = append(order, to)
			} else {
				indeg[to]--
			}
		}
	}
	s.order = order
	if len(order) < n {
		return Result{}, ErrZeroTransitCycle
	}
	// The intermediate unit steps of longer edges are summary nodes of
	// their own, numbered after the heads.
	heads := m
	for _, e := range edges {
		m += max(e.T-1, 0)
	}
	val, d := grown(&s.val, n), grown(&s.d, (m+1)*m)
	for k := 1; k <= m; k++ {
		prev, cur := d[(k-1)*m:k*m], d[k*m:(k+1)*m]
		for v := range val {
			val[v] = noPath
			if node[v] > 0 {
				val[v] = prev[node[v]-1]
			}
		}
		for _, u := range order {
			if val[u] == noPath {
				continue
			}
			for _, ei := range adj[off[u]:off[u+1]] {
				val[edges[ei].To] = max(val[edges[ei].To], val[u]+int64(edges[ei].W))
			}
		}
		for v := range cur {
			cur[v] = noPath
		}
		mid := heads // the edge's first intermediate summary node
		for _, e := range edges {
			if e.T == 0 {
				continue
			}
			x := val[e.From]
			if x != noPath {
				x += int64(e.W)
			}
			for j := 0; j < e.T-1; j++ {
				x, cur[mid+j] = prev[mid+j], x
			}
			mid += e.T - 1
			cur[node[e.To]-1] = max(cur[node[e.To]-1], x)
		}
	}
	var bw, bl int64 // bl stays 0 without a cycle
	for v, dm := range d[m*m:] {
		if dm == noPath {
			continue // no walk of m steps ends at v, so no cycle reaches it
		}
		var vw, vl int64
		for k := range m {
			num, den := dm-d[k*m+v], int64(m-k)
			if k == 0 || num*vl < vw*den {
				vw, vl = num, den
			}
		}
		if bl == 0 || vw*bl > bw*vl {
			bw, bl = vw, vl
		}
	}
	if bl == 0 {
		return Result{}, nil
	}
	return Result{Ratio: float64(bw) / float64(bl), HasCycle: true}, nil
}

// grown returns *s resized to n zeroed elements, reusing its capacity.
func grown[T int | int64](s *[]T, n int) []T {
	*s = slices.Grow((*s)[:0], n)[:n]
	clear(*s)
	return *s
}
