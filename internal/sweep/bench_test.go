package sweep

import (
	"context"
	"fmt"
	"testing"

	"facile"
	"facile/internal/bhive"
)

// BenchmarkSweep measures the design-space pipeline end to end on a fixed
// workload: a 24-point SKL grid (issue width x LSD x decoders) over 64
// deterministic loop blocks, every iteration a full Run — the base pass
// (warm after the first), typed derivation of every point, the factored
// block tables and per-point folds, rank. Reported as variants/s (design
// points evaluated per second) and analyses/s (the point x block pairs
// per second); the CI bench job gates variants/s into BENCH_10.json with a
// floor.
func BenchmarkSweep(b *testing.B) {
	grid, err := ParseGrid([]byte(`{
		"base": "SKL",
		"axes": [
			{"param": "issue_width", "values": [3, 4, 5, 6]},
			{"param": "lsd_enabled", "values": [false, true]},
			{"param": "num_decoders", "values": [2, 4, 5]}
		]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	const nBlocks = 64
	gen := bhive.Generate(42, nBlocks)
	blocks := make([][]byte, nBlocks)
	for i, bm := range gen {
		blocks[i] = bm.LoopCode
	}
	eng, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		b.Fatal(err)
	}
	wl := Workload{Blocks: blocks, Mode: facile.Loop}
	points := grid.Points()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), eng, grid, wl, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Variants) != points {
			b.Fatalf("got %d variants, want %d", len(res.Variants), points)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(points)*float64(b.N)/secs, "variants/s")
		b.ReportMetric(float64(points*nBlocks)*float64(b.N)/secs, "analyses/s")
	}
}

// BenchmarkDeriveVariant isolates the cost of deriving one ephemeral
// variant from an overlay — spec decode, validation, no registration —
// that DeriveVariant pays per call; a sweep decodes each axis value once
// instead.
func BenchmarkDeriveVariant(b *testing.B) {
	eng, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		b.Fatal(err)
	}
	reg := eng.Registry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("SKL~bench%d", i)
		if _, err := reg.DeriveVariant(name, "SKL", []byte(`{"issue_width":6}`)); err != nil {
			b.Fatal(err)
		}
	}
}
