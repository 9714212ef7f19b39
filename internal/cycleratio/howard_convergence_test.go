package cycleratio

import (
	"math/rand"
	"testing"
)

// TestHowardConvergenceStatistics pins the behavior that makes Howard's
// algorithm the right default: on the vast majority of graphs it converges
// in a handful of policy iterations; the rare non-converging cases (tie
// cycling on adversarial random multigraphs) hit the iteration cap quickly
// and fall back to the exact Bellman-Ford solver. A regression that makes
// convergence slow or failure-prone shows up here before it shows up as a
// Facile performance problem (Precedence dominates Facile's runtime,
// paper Figure 4).
func TestHowardConvergenceStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSolver()
	worst, fails, total := 0, 0, 0
	for k := 0; k < 300; k++ {
		g := randomGraph(rng, 60, 240)
		s.prune(g)
		core := &s.pruned
		if core.N == 0 || s.hasZeroTransitCycle(core) {
			continue
		}
		total++
		s.decompose(core)
		for i := 0; i < s.nSCCs; i++ {
			_, iters, ok := s.howard(&s.sccs[i].g)
			if !ok {
				fails++
				continue
			}
			if iters > worst {
				worst = iters
			}
		}
	}
	if total < 250 {
		t.Fatalf("only %d usable graphs", total)
	}
	if worst > 100 {
		t.Errorf("worst-case policy iterations %d (expected a few dozen)", worst)
	}
	if fails > total/5 {
		t.Errorf("%d/%d graphs fell back to Bellman-Ford (expected rare)", fails, total)
	}
}

// TestHowardConvergesOnDependenceShapedGraphs: graphs with the layered
// structure of instruction dependence graphs (forward latency edges,
// backward iteration edges) must converge without the fallback.
func TestHowardConvergesOnDependenceShapedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSolver()
	fails := 0
	total := 0
	for k := 0; k < 200; k++ {
		n := 4 + rng.Intn(40)
		g := &Graph{N: n}
		// Forward chain edges with latencies, like consumed->produced.
		for v := 0; v+1 < n; v++ {
			g.AddEdge(v, v+1, float64(1+rng.Intn(5)), 0)
			if rng.Intn(3) == 0 && v+2 < n {
				g.AddEdge(v, v+2, float64(1+rng.Intn(5)), 0)
			}
		}
		// Backward loop-carried edges.
		for e := 0; e < 1+rng.Intn(4); e++ {
			from := rng.Intn(n)
			to := rng.Intn(from + 1)
			g.AddEdge(from, to, 0, 1)
		}
		s.prune(g)
		if s.pruned.N == 0 {
			continue
		}
		total++
		// MaxRatio solves per strongly connected component; each component
		// must converge without the Bellman-Ford fallback.
		s.decompose(&s.pruned)
		for i := 0; i < s.nSCCs; i++ {
			if _, _, ok := s.howard(&s.sccs[i].g); !ok {
				fails++
			}
		}
	}
	if total < 150 {
		t.Fatalf("only %d usable graphs", total)
	}
	if fails > 0 {
		t.Errorf("%d/%d dependence-shaped graphs failed to converge", fails, total)
	}
}
