package cycleratio

import (
	"math"
	"slices"
)

// howard runs Howard's policy-iteration algorithm for the maximum cycle
// ratio [Dasdan 2004; Howard 1960] on this Solver's scratch state. Every
// node of the input graph must have at least one outgoing edge (guaranteed
// for SCC subgraphs materialized by decompose, and by prune for callers that
// still pre-prune). The second result is the number of policy iterations performed
// (diagnostics). Returns ok == false if the iteration fails to converge
// within the safety bound, in which case the caller falls back to the
// reference solver. The returned Result.Cycle aliases solver storage.
func (s *Solver) howard(g *Graph) (Result, int, bool) {
	const eps = 1e-9
	n := g.N
	if n == 0 {
		return Result{}, 0, true
	}

	// Outgoing adjacency as edge indices (compact CSR form).
	off, list := s.csrAll(g)

	// Initial policy: the edge with the largest weight.
	policy := growN(&s.policy, n)
	for v := 0; v < n; v++ {
		best := list[off[v]]
		for _, ei := range list[off[v]+1 : off[v+1]] {
			if g.Edges[ei].W > g.Edges[best].W {
				best = ei
			}
		}
		policy[v] = best
	}

	d := growN(&s.d, n)
	// Policy iteration converges in a handful of rounds in practice; if it
	// has not converged by ~4n rounds something is cycling and the caller's
	// Bellman-Ford fallback is both correct and cheaper than persisting.
	maxIter := 4*n + 64

	var lambda float64
	critCycle := slices.Grow(s.critBest[:0], n)

	// Scratch buffers reused across policy iterations.
	state := growN(&s.state, n)         // 0 = unvisited, 1 = on stack, 2 = done
	cycleRoot := growN(&s.cycleRoot, n) // root of the policy cycle the node reaches
	visited := growN(&s.visited, n)
	revHead := growN(&s.revHead, n) // linked-list reverse adjacency of the policy graph
	revNext := growN(&s.revNext, n)
	// Walks, cycles and the queue hold at most n entries; growing them once
	// keeps a cold Solver from copying them repeatedly on a large graph.
	queue := slices.Grow(s.queue[:0], n)
	stack := slices.Grow(s.walk[:0], n)
	s.cycTmp = slices.Grow(s.cycTmp[:0], n)

	for iter := 0; iter < maxIter; iter++ {
		// Find the cycles of the policy graph (functional graph: one
		// successor per node) and the maximum cycle ratio among them.
		lambda = math.Inf(-1)
		critCycle = critCycle[:0]
		for i := 0; i < n; i++ {
			state[i] = 0
			cycleRoot[i] = -1
		}
		for start := 0; start < n; start++ {
			if state[start] != 0 {
				continue
			}
			v := start
			stack = stack[:0]
			for state[v] == 0 {
				state[v] = 1
				stack = append(stack, v)
				v = g.Edges[policy[v]].To
			}
			if state[v] == 1 {
				// Found a new policy cycle starting at v.
				var w float64
				var t int
				cyc := s.cycTmp[:0]
				u := v
				for {
					ei := policy[u]
					w += g.Edges[ei].W
					t += g.Edges[ei].T
					cyc = append(cyc, ei)
					u = g.Edges[ei].To
					if u == v {
						break
					}
				}
				s.cycTmp = cyc
				var ratio float64
				if t == 0 {
					ratio = math.Inf(1) // should have been rejected earlier
				} else {
					ratio = w / float64(t)
				}
				if ratio > lambda {
					lambda = ratio
					critCycle = append(critCycle[:0], cyc...)
				}
				u = v
				for {
					cycleRoot[u] = v
					u = g.Edges[policy[u]].To
					if u == v {
						break
					}
				}
			}
			// Mark the path as done; propagate the cycle root.
			root := cycleRoot[v]
			for i := len(stack) - 1; i >= 0; i-- {
				state[stack[i]] = 2
				if cycleRoot[stack[i]] == -1 {
					cycleRoot[stack[i]] = root
				}
			}
		}

		// Value determination: d(root) = 0 per cycle; walk the policy graph
		// backwards from the roots.
		for v := 0; v < n; v++ {
			revHead[v] = -1
			visited[v] = false
		}
		for v := 0; v < n; v++ {
			to := g.Edges[policy[v]].To
			revNext[v] = revHead[to]
			revHead[to] = v
		}
		queue = queue[:0]
		for v := 0; v < n; v++ {
			if cycleRoot[v] == v {
				d[v] = 0
				visited[v] = true
				queue = append(queue, v)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for u := revHead[v]; u != -1; u = revNext[u] {
				if visited[u] {
					continue
				}
				e := g.Edges[policy[u]]
				d[u] = e.W - lambda*float64(e.T) + d[v]
				visited[u] = true
				queue = append(queue, u)
			}
		}

		// Policy improvement (Jacobi: d is held fixed while scanning, which
		// avoids the policy cycling a Gauss-Seidel update can induce).
		improved := false
		for v := 0; v < n; v++ {
			best := policy[v]
			cur := g.Edges[best]
			bestVal := cur.W - lambda*float64(cur.T) + d[cur.To]
			for _, ei := range list[off[v]:off[v+1]] {
				e := g.Edges[ei]
				val := e.W - lambda*float64(e.T) + d[e.To]
				if val > bestVal+eps {
					bestVal = val
					best = ei
				}
			}
			if best != policy[v] && bestVal > d[v]+eps {
				policy[v] = best
				improved = true
			}
		}
		if !improved {
			s.critBest, s.queue, s.walk = critCycle, queue, stack
			return Result{Ratio: lambda, Cycle: critCycle, HasCycle: true}, iter + 1, true
		}
	}
	s.critBest, s.queue, s.walk = critCycle, queue, stack
	return Result{}, maxIter, false
}
