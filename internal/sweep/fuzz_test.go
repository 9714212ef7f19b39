package sweep_test

import (
	"os"
	"testing"

	"facile/internal/server"
	"facile/internal/sweep"
)

// FuzzParseGrid: grid JSON is untrusted input on POST /v1/sweep. ParseGrid
// must never panic, an accepted grid enumerates between 1 and MaxPoints
// design points, and a grid small enough for the server to run enumerates
// exactly Points() of them. The committed SKL frontier grid seeds the
// corpus; malformed grids live in testdata/fuzz/FuzzParseGrid and run in
// every go test.
func FuzzParseGrid(f *testing.F) {
	seed, err := os.ReadFile("../../testdata/sweep/skl_frontier.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sweep.ParseGrid(data)
		if err != nil {
			return
		}
		n := g.Points()
		if n < 1 || n > sweep.MaxPoints {
			t.Fatalf("accepted grid enumerates %d points, want 1..%d", n, sweep.MaxPoints)
		}
		// Above the server's cap a sweep is refused before it enumerates;
		// 20 two-value axes already reach MaxPoints.
		if n > server.DefaultMaxSweepPoints {
			return
		}
		pts, err := g.Enumerate()
		if err != nil {
			t.Fatalf("accepted grid fails to enumerate: %v", err)
		}
		if len(pts) != n {
			t.Fatalf("Enumerate returned %d points, Points() says %d", len(pts), n)
		}
	})
}
