package cycleratio_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"facile/internal/cycleratio"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func maxRatio(g *cycleratio.Graph) (cycleratio.Result, error) {
	return cycleratio.NewSolver().MaxRatio(g)
}

func TestSimpleSelfLoop(t *testing.T) {
	g := &cycleratio.Graph{N: 1}
	g.AddEdge(0, 0, 3, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCycle || res.Ratio != 3 {
		t.Fatalf("got %+v", res)
	}
}

func TestTwoCycles(t *testing.T) {
	// Cycle A: 0 -> 1 -> 0 with total weight 4, transit 1 => ratio 4.
	// Cycle B: 2 -> 3 -> 2 with total weight 10, transit 2 => ratio 5.
	g := &cycleratio.Graph{N: 4}
	g.AddEdge(0, 1, 4, 0)
	g.AddEdge(1, 0, 0, 1)
	g.AddEdge(2, 3, 7, 1)
	g.AddEdge(3, 2, 3, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 5 {
		t.Fatalf("ratio = %v, want 5", res.Ratio)
	}
}

func TestAcyclic(t *testing.T) {
	g := &cycleratio.Graph{N: 3}
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
	g := &cycleratio.Graph{N: 2}
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 0, 1, 0)
	if _, err := maxRatio(g); err != cycleratio.ErrZeroTransitCycle {
		t.Fatalf("err = %v, want ErrZeroTransitCycle", err)
	}
}

func TestSharedNodeCycles(t *testing.T) {
	// Two cycles through node 0: ratio 2 and ratio 7/2.
	g := &cycleratio.Graph{N: 3}
	g.AddEdge(0, 1, 2, 0)
	g.AddEdge(1, 0, 0, 1)
	g.AddEdge(0, 2, 6, 1)
	g.AddEdge(2, 0, 1, 1)
	res, err := maxRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != 3.5 {
		t.Fatalf("ratio = %v, want 3.5", res.Ratio)
	}
}

// TestRejectsUnrepresentableEdges: the solve is exact in integers, so a
// fractional, non-finite or huge weight, or a negative transit, is an error.
func TestRejectsUnrepresentableEdges(t *testing.T) {
	for _, e := range []cycleratio.Edge{
		{W: 0.5, T: 1}, {W: math.NaN(), T: 1}, {W: math.Inf(1), T: 1},
		{W: 1 << 40, T: 1}, {W: 1, T: -1},
	} {
		g := &cycleratio.Graph{N: 1, Edges: []cycleratio.Edge{e}}
		if _, err := maxRatio(g); err == nil || errors.Is(err, cycleratio.ErrZeroTransitCycle) {
			t.Errorf("edge %+v: err = %v, want a weight error", e, err)
		}
	}
}

// enumerate returns the maximum W/T over every simple cycle of g as an
// exact fraction, whether g has a cycle, and whether it has one of zero
// transit, by walking every simple cycle from its lowest node.
func enumerate(g *cycleratio.Graph) (w, t int64, cyclic, zeroTransit bool) {
	onPath := make([]bool, g.N)
	var walk func(start, v int, pw, pt int64)
	walk = func(start, v int, pw, pt int64) {
		for _, e := range g.Edges {
			if e.From != v || e.To < start {
				continue
			}
			cw, ct := pw+int64(e.W), pt+int64(e.T)
			switch {
			case e.To == start:
				if ct == 0 {
					zeroTransit = true
				} else if !cyclic || cw*t > w*ct {
					w, t, cyclic = cw, ct, true
				}
			case !onPath[e.To]:
				onPath[e.To] = true
				walk(start, e.To, cw, ct)
				onPath[e.To] = false
			}
		}
	}
	for s := 0; s < g.N; s++ {
		onPath[s] = true
		walk(s, s, 0, 0)
		onPath[s] = false
	}
	return w, t, cyclic || zeroTransit, zeroTransit
}

// checkEnumerated fails t unless MaxRatio on g agrees exactly with
// enumerate: the ratio bit for bit, whether a cycle exists, and
// ErrZeroTransitCycle exactly when a zero-transit cycle exists. It returns
// the last two.
func checkEnumerated(t *testing.T, s *cycleratio.Solver, g *cycleratio.Graph) (cyclic, zero bool) {
	t.Helper()
	w, tr, cyclic, zero := enumerate(g)
	res, err := s.MaxRatio(g)
	switch {
	case zero:
		if err != cycleratio.ErrZeroTransitCycle {
			t.Fatalf("graph %+v has a zero-transit cycle; MaxRatio = %+v, %v", g, res, err)
		}
	case err != nil:
		t.Fatalf("graph %+v: %v", g, err)
	case res.HasCycle != cyclic:
		t.Fatalf("graph %+v: HasCycle = %v, enumeration found a cycle: %v", g, res.HasCycle, cyclic)
	case cyclic && math.Float64bits(res.Ratio) != math.Float64bits(float64(w)/float64(tr)):
		t.Fatalf("graph %+v: ratio %v, enumeration %d/%d", g, res.Ratio, w, tr)
	case !cyclic && res.Ratio != 0:
		t.Fatalf("graph %+v: acyclic with ratio %v", g, res.Ratio)
	}
	return cyclic, zero
}

// TestMatchesCycleEnumeration is the solver's independent property check:
// on random multigraphs of at most 7 nodes, with transits 0–2 and integral
// weights (some negative), MaxRatio equals the best ratio over every simple
// cycle. One warm Solver answers every graph, so reused buffers are
// covered too.
func TestMatchesCycleEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := cycleratio.NewSolver()
	var acyclic, cyclic, zero int
	for iter := 0; iter < 20000; iter++ {
		g := &cycleratio.Graph{N: 1 + rng.Intn(7)}
		for range rng.Intn(2*g.N + 2) {
			g.AddEdge(rng.Intn(g.N), rng.Intn(g.N), float64(rng.Intn(13)-3), rng.Intn(3))
		}
		switch c, z := checkEnumerated(t, s, g); {
		case z:
			zero++
		case c:
			cyclic++
		default:
			acyclic++
		}
	}
	if acyclic < 1000 || cyclic < 5000 || zero < 1000 {
		t.Fatalf("too few graphs of some kind: %d acyclic, %d cyclic, %d with a zero-transit cycle", acyclic, cyclic, zero)
	}
}

// randomGraph builds a random graph guaranteed to be free of zero-transit
// cycles by making every edge that closes a "backward" step carry transit 1.
func randomGraph(rng *rand.Rand, n, m int) *cycleratio.Graph {
	g := &cycleratio.Graph{N: n}
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

// TestQuickCycleRatioScaling: scaling all weights by a constant scales the
// ratio by the same constant (testing/quick property).
func TestQuickCycleRatioScaling(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 1 + float64(scaleRaw%7)
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(8), 1+rng.Intn(16))
		res1, err1 := maxRatio(g)
		scaled := &cycleratio.Graph{N: g.N}
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
		return almostEq(res1.Ratio*scale, res2.Ratio)
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
		g2 := &cycleratio.Graph{N: g.N, Edges: append([]cycleratio.Edge(nil), g.Edges...)}
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
