package cycleratio

import "slices"

// Solver is a reusable scratch context for maximum-cycle-ratio queries: the
// pruned graph, the SCC decomposition, and all of Howard's policy-iteration
// state live in buffers that are grown once and reused across calls, so a
// warm Solver answers a query without transient heap allocations. A Solver
// is NOT safe for concurrent use.
//
// The Cycle slice of a Result returned by Solver.MaxRatio aliases solver
// storage and is only valid until the next call on the same Solver.
type Solver struct {
	// prune
	alive  []bool
	outDeg []int
	inDeg  []int
	newID  []int
	pruned Graph
	remap  []int // pruned edge index -> original edge index

	// CSR adjacency scratch, shared by the zero-transit DFS (T == 0 edges),
	// Tarjan's SCC pass, and Howard's policy iteration (each rebuilds it for
	// its own graph before use).
	csrOff  []int
	csrList []int

	// zero-transit cycle detection
	color   []int
	ztStack []dfsFrame

	// Tarjan SCC
	index    []int
	low      []int
	onStack  []bool
	comp     []int
	sccStk   []int
	frames   []dfsFrame
	nodeID   []int
	compOf   []int
	compSize []int
	sccs     []sccBuf
	nSCCs    int

	// Howard policy iteration
	policy    []int
	d         []float64
	state     []int
	cycleRoot []int
	visited   []bool
	revHead   []int
	revNext   []int
	queue     []int
	walk      []int
	cycTmp    []int
	critBest  []int
	cycOut    []int
}

// dfsFrame is one explicit-stack frame of an iterative DFS.
type dfsFrame struct{ node, idx int }

// sccBuf is one strongly connected component built into reusable storage.
type sccBuf struct {
	g       Graph
	edgeMap []int
}

// NewSolver returns an empty solver. Buffers grow on first use and are
// retained for subsequent calls.
func NewSolver() *Solver { return new(Solver) }

// growN returns *s resized to n elements, reusing capacity. Contents are
// unspecified; callers initialize what they read.
func growN[T any](s *[]T, n int) []T {
	t := *s
	if cap(t) < n {
		t = make([]T, n)
	} else {
		t = t[:n]
	}
	*s = t
	return t
}

// MaxRatio computes the maximum cycle ratio using Howard's algorithm with a
// Bellman-Ford fallback, reusing this Solver's scratch state. The returned
// Result.Cycle aliases solver storage; see the Solver doc comment.
//
// Every cycle lies within one strongly connected component, and policy
// iteration with a single global λ only converges reliably within one SCC
// (sub-critical SCCs have no consistent value function under the global λ).
// The solver therefore decomposes the graph into SCCs and solves each
// independently, taking the maximum. Nodes that cannot lie on a cycle need
// no separate pruning pass: decompose materializes only components with at
// least one internal edge, which excludes them in the same single O(N+E)
// Tarjan traversal (the historical iterative degree-pruning fixed point cost
// O(rounds·(N+E)) for the same effect and dominated the solver's profile).
func (s *Solver) MaxRatio(g *Graph) (Result, error) {
	if g.N == 0 || len(g.Edges) == 0 {
		return Result{}, nil
	}
	s.decompose(g)
	// A zero-transit cycle is a cycle, so it lies entirely within one
	// materialized SCC; checking the (small) components instead of the full
	// graph keeps the malformed-graph guard off the hot path.
	for i := 0; i < s.nSCCs; i++ {
		if s.hasZeroTransitCycle(&s.sccs[i].g) {
			return Result{}, ErrZeroTransitCycle
		}
	}
	var best Result
	s.cycOut = s.cycOut[:0]
	for i := 0; i < s.nSCCs; i++ {
		comp := &s.sccs[i]
		res, _, ok := s.howard(&comp.g)
		if !ok {
			ratio, err := maxRatioBF(&comp.g)
			if err != nil {
				return Result{}, err
			}
			res = Result{Ratio: ratio, HasCycle: true}
		}
		if res.HasCycle && (!best.HasCycle || res.Ratio > best.Ratio) {
			// Translate to original-graph edge indices.
			s.cycOut = s.cycOut[:0]
			for _, e := range res.Cycle {
				s.cycOut = append(s.cycOut, comp.edgeMap[e])
			}
			best = Result{Ratio: res.Ratio, Cycle: s.cycOut, HasCycle: true}
		}
	}
	return best, nil
}

// prune iteratively removes nodes with no outgoing or no incoming edges;
// such nodes cannot lie on a cycle. The remaining subgraph (with renumbered
// nodes) is left in s.pruned and the new-to-old edge index mapping in
// s.remap.
func (s *Solver) prune(g *Graph) {
	alive := growN(&s.alive, g.N)
	for i := range alive {
		alive[i] = true
	}
	outDeg := growN(&s.outDeg, g.N)
	inDeg := growN(&s.inDeg, g.N)
	for {
		for i := 0; i < g.N; i++ {
			outDeg[i], inDeg[i] = 0, 0
		}
		for _, e := range g.Edges {
			if !alive[e.From] || !alive[e.To] {
				continue
			}
			outDeg[e.From]++
			inDeg[e.To]++
		}
		changed := false
		for v := 0; v < g.N; v++ {
			if alive[v] && (outDeg[v] == 0 || inDeg[v] == 0) {
				alive[v] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	newID := growN(&s.newID, g.N)
	n := 0
	for v := 0; v < g.N; v++ {
		if alive[v] {
			newID[v] = n
			n++
		} else {
			newID[v] = -1
		}
	}
	s.pruned.N = n
	s.pruned.Edges = slices.Grow(s.pruned.Edges[:0], len(g.Edges))
	s.remap = slices.Grow(s.remap[:0], len(g.Edges))
	for i, e := range g.Edges {
		if alive[e.From] && alive[e.To] {
			s.pruned.Edges = append(s.pruned.Edges,
				Edge{From: newID[e.From], To: newID[e.To], W: e.W, T: e.T})
			s.remap = append(s.remap, i)
		}
	}
}

// csr builds a compact adjacency view of g into s.csrOff/s.csrList: the
// edge indices leaving node v are csrList[csrOff[v]:csrOff[v+1]]. keep
// filters which edges participate.
func (s *Solver) csr(g *Graph, keep func(*Edge) bool) (off, list []int) {
	off = growN(&s.csrOff, g.N+1)
	for i := range off {
		off[i] = 0
	}
	m := 0
	for i := range g.Edges {
		if keep(&g.Edges[i]) {
			off[g.Edges[i].From+1]++
			m++
		}
	}
	for v := 0; v < g.N; v++ {
		off[v+1] += off[v]
	}
	list = growN(&s.csrList, m)
	// Fill using off[v] as a moving cursor, then restore by shifting back.
	for i := range g.Edges {
		if keep(&g.Edges[i]) {
			list[off[g.Edges[i].From]] = i
			off[g.Edges[i].From]++
		}
	}
	for v := g.N; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
	return off, list
}

func keepZeroTransit(e *Edge) bool { return e.T == 0 }

// csrAll is csr specialized to keep every edge: the filter predicate (an
// indirect call per edge per pass) and the counting branch disappear from
// the hot path shared by decompose and howard.
func (s *Solver) csrAll(g *Graph) (off, list []int) {
	off = growN(&s.csrOff, g.N+1)
	for i := range off {
		off[i] = 0
	}
	for i := range g.Edges {
		off[g.Edges[i].From+1]++
	}
	for v := 0; v < g.N; v++ {
		off[v+1] += off[v]
	}
	list = growN(&s.csrList, len(g.Edges))
	for i := range g.Edges {
		list[off[g.Edges[i].From]] = i
		off[g.Edges[i].From]++
	}
	for v := g.N; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
	return off, list
}

// hasZeroTransitCycle detects a cycle consisting solely of T == 0 edges
// (iterative three-color DFS).
func (s *Solver) hasZeroTransitCycle(g *Graph) bool {
	off, list := s.csr(g, keepZeroTransit)
	color := growN(&s.color, g.N)
	for i := range color {
		color[i] = 0
	}
	s.ztStack = slices.Grow(s.ztStack[:0], g.N)
	for start := 0; start < g.N; start++ {
		if color[start] != 0 {
			continue
		}
		stack := append(s.ztStack[:0], dfsFrame{start, off[start]})
		color[start] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < off[f.node+1] {
				next := g.Edges[list[f.idx]].To
				f.idx++
				switch color[next] {
				case 0:
					color[next] = 1
					stack = append(stack, dfsFrame{next, off[next]})
				case 1:
					s.ztStack = stack
					return true
				}
			} else {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
			}
		}
		s.ztStack = stack
	}
	return false
}

// decompose finds the strongly connected components of g that contain at
// least one internal edge (iterative Tarjan) and materializes each into
// s.sccs[0:s.nSCCs], reusing component storage across calls.
func (s *Solver) decompose(g *Graph) {
	n := g.N
	off, list := s.csrAll(g)

	const unvisited = -1
	index := growN(&s.index, n)
	low := growN(&s.low, n)
	onStack := growN(&s.onStack, n)
	comp := growN(&s.comp, n)
	for i := 0; i < n; i++ {
		index[i] = unvisited
		comp[i] = -1
		onStack[i] = false
	}
	// The DFS stacks hold at most n nodes; growing them once keeps a cold
	// Solver from copying them repeatedly on a large graph.
	stack := slices.Grow(s.sccStk[:0], n)
	s.frames = slices.Grow(s.frames[:0], n)
	nextIndex := 0
	nComps := 0

	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames := append(s.frames[:0], dfsFrame{start, off[start]})
		index[start] = nextIndex
		low[start] = nextIndex
		nextIndex++
		stack = append(stack, start)
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.idx < off[f.node+1] {
				w := g.Edges[list[f.idx]].To
				f.idx++
				if index[w] == unvisited {
					index[w] = nextIndex
					low[w] = nextIndex
					nextIndex++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, dfsFrame{w, off[w]})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Done with v.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComps
					if w == v {
						break
					}
				}
				nComps++
			}
		}
		s.frames = frames
	}
	s.sccStk = stack

	// Number every node within its component (increasing node order) in one
	// O(N) pass; compOf doubles as the per-component cursor here before it
	// becomes the component-to-subgraph map below. The historical per-
	// component numbering scan was O(components·N).
	nodeID := growN(&s.nodeID, n)
	compOf := growN(&s.compOf, nComps)
	for i := 0; i < nComps; i++ {
		compOf[i] = 0
	}
	for v := 0; v < n; v++ {
		nodeID[v] = compOf[comp[v]]
		compOf[comp[v]]++
	}
	compSize := growN(&s.compSize, nComps)
	copy(compSize, compOf[:nComps])

	// Materialize one subgraph per component containing internal edges.
	s.nSCCs = 0
	for i := 0; i < nComps; i++ {
		compOf[i] = -1
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if comp[e.From] != comp[e.To] {
			continue
		}
		c := comp[e.From]
		oi := compOf[c]
		if oi < 0 {
			oi = s.nSCCs
			compOf[c] = oi
			s.nSCCs++
			if len(s.sccs) < s.nSCCs {
				s.sccs = append(s.sccs, sccBuf{})
			}
			sg := &s.sccs[oi]
			sg.g.N = compSize[c]
			sg.g.Edges = sg.g.Edges[:0]
			sg.edgeMap = sg.edgeMap[:0]
		}
		sg := &s.sccs[oi]
		sg.g.Edges = append(sg.g.Edges, Edge{
			From: nodeID[e.From], To: nodeID[e.To], W: e.W, T: e.T,
		})
		sg.edgeMap = append(sg.edgeMap, i)
	}
}
