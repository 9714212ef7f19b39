package cycleratio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// maxRatio solves g on a fresh Solver, so the result's Cycle is the
// caller's to keep.
func maxRatio(g *Graph) (Result, error) { return NewSolver().MaxRatio(g) }

func TestSimpleSelfLoop(t *testing.T) {
	g := &Graph{N: 1}
	g.AddEdge(0, 0, 3, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCycle || !almostEq(res.Ratio, 3) {
		t.Fatalf("got %+v", res)
	}
	if len(res.Cycle) != 1 {
		t.Fatalf("cycle: %v", res.Cycle)
	}
}

func TestTwoCycles(t *testing.T) {
	// Cycle A: 0 -> 1 -> 0 with total weight 4, transit 1 => ratio 4.
	// Cycle B: 2 -> 3 -> 2 with total weight 10, transit 2 => ratio 5.
	g := &Graph{N: 4}
	g.AddEdge(0, 1, 4, 0)
	g.AddEdge(1, 0, 0, 1)
	g.AddEdge(2, 3, 7, 1)
	g.AddEdge(3, 2, 3, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Ratio, 5) {
		t.Fatalf("ratio = %v, want 5", res.Ratio)
	}
}

func TestAcyclic(t *testing.T) {
	g := &Graph{N: 3}
	g.AddEdge(0, 1, 5, 0)
	g.AddEdge(1, 2, 5, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasCycle || res.Ratio != 0 {
		t.Fatalf("got %+v", res)
	}
}

func TestZeroTransitCycle(t *testing.T) {
	g := &Graph{N: 2}
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 0, 1, 0)
	if _, err := maxRatio(g); err != ErrZeroTransitCycle {
		t.Fatalf("err = %v, want ErrZeroTransitCycle", err)
	}
}

func TestSharedNodeCycles(t *testing.T) {
	// Two cycles through node 0: ratio 2 and ratio 7/2.
	g := &Graph{N: 3}
	g.AddEdge(0, 1, 2, 0)
	g.AddEdge(1, 0, 0, 1)
	g.AddEdge(0, 2, 6, 1)
	g.AddEdge(2, 0, 1, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Ratio, 3.5) {
		t.Fatalf("ratio = %v, want 3.5", res.Ratio)
	}
}

func TestCriticalCycleIsConsistent(t *testing.T) {
	g := &Graph{N: 4}
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 5, 0)
	g.AddEdge(2, 0, 0, 1)
	g.AddEdge(2, 3, 1, 0)
	g.AddEdge(3, 2, 1, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCycle {
		t.Fatal("expected a cycle")
	}
	// The reported critical cycle's own ratio must equal the result ratio.
	var w float64
	var tr int
	for _, ei := range res.Cycle {
		w += g.Edges[ei].W
		tr += g.Edges[ei].T
	}
	if tr == 0 || !almostEq(w/float64(tr), res.Ratio) {
		t.Fatalf("critical cycle ratio %v/%d inconsistent with %v", w, tr, res.Ratio)
	}
	// And the cycle must be connected: each edge ends where the next begins.
	for i, ei := range res.Cycle {
		next := res.Cycle[(i+1)%len(res.Cycle)]
		if g.Edges[ei].To != g.Edges[next].From {
			t.Fatalf("cycle edges not connected: %v", res.Cycle)
		}
	}
}

// randomGraph builds a random graph guaranteed to be free of zero-transit
// cycles by making every edge that closes a "backward" step carry transit 1.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := &Graph{N: n}
	for k := 0; k < m; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		w := float64(rng.Intn(20))
		t := 0
		if to <= from {
			t = 1 + rng.Intn(2)
		}
		g.AddEdge(from, to, w, t)
	}
	return g
}

// TestHowardMatchesReference is the core property test: Howard's algorithm
// and the parametric Bellman-Ford solver must agree on random graphs.
func TestHowardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(12)
		m := 1 + rng.Intn(30)
		g := randomGraph(rng, n, m)
		res, err := maxRatio(g)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		ref, err := MaxRatioReference(g)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !res.HasCycle {
			if ref > 1e-6 {
				t.Fatalf("iter %d: howard says acyclic, reference ratio %v", iter, ref)
			}
			continue
		}
		if math.Abs(res.Ratio-ref) > 1e-6*(1+ref) {
			t.Fatalf("iter %d: howard %v != reference %v", iter, res.Ratio, ref)
		}
	}
}

// TestQuickCycleRatioScaling: scaling all weights by a constant scales the
// ratio by the same constant (testing/quick property).
func TestQuickCycleRatioScaling(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 1 + float64(scaleRaw%7)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(8), 1+rng.Intn(16))
		res1, err1 := maxRatio(g)
		scaled := &Graph{N: g.N}
		for _, e := range g.Edges {
			scaled.AddEdge(e.From, e.To, e.W*scale, e.T)
		}
		res2, err2 := maxRatio(scaled)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		if res1.HasCycle != res2.HasCycle {
			return false
		}
		if !res1.HasCycle {
			return true
		}
		return math.Abs(res1.Ratio*scale-res2.Ratio) < 1e-6*(1+res2.Ratio)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddingEdgeNeverDecreases: adding an edge can only increase (or
// keep) the maximum cycle ratio.
func TestQuickAddingEdgeNeverDecreases(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(8), 2+rng.Intn(14))
		res1, err := maxRatio(g)
		if err != nil {
			return true // skip malformed
		}
		g2 := &Graph{N: g.N, Edges: append([]Edge(nil), g.Edges...)}
		from := rng.Intn(g.N)
		to := rng.Intn(g.N)
		t2 := 1
		g2.AddEdge(from, to, float64(rng.Intn(10)), t2)
		res2, err := maxRatio(g2)
		if err != nil {
			return true
		}
		return res2.Ratio >= res1.Ratio-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHoward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	graphs := make([]*Graph, 64)
	for i := range graphs {
		graphs[i] = randomGraph(rng, 40, 120)
	}
	s := NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.MaxRatio(graphs[i%len(graphs)])
	}
}
