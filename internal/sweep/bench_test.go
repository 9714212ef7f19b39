package sweep

import (
	"context"
	"fmt"
	"testing"

	"facile"
	"facile/internal/bhive"
)

// benchGrid is the benchmarks' 24-point SKL grid: issue width x LSD x
// decoders.
func benchGrid(b *testing.B) *Grid {
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
	return grid
}

// benchWorkloads returns n workloads of 64 deterministic loop blocks each,
// no block in two of them.
func benchWorkloads(n int) []Workload {
	const nBlocks = 64
	gen := bhive.Generate(42, nBlocks*n)
	wls := make([]Workload, n)
	for i := range wls {
		wls[i] = Workload{Blocks: make([][]byte, nBlocks), Mode: facile.Loop}
		for j := range wls[i].Blocks {
			wls[i].Blocks[j] = gen[i*nBlocks+j].LoopCode
		}
	}
	return wls
}

// BenchmarkSweep measures the design-space pipeline end to end as the
// sweep workload of the benchmark (bench/) runs it: every iteration a full
// Run of the 24-point grid over 64 loop blocks it has not seen, so each
// block's base analysis is a cache miss — the one pass per block (base
// analysis, block tables, every point's pair), the typed derivation of
// every point, the serial reduction and the rank. Reported as variants/s
// (design points evaluated per second) and analyses/s (the point x block
// pairs per second); the CI bench job gates variants/s into BENCH_10.json
// with a floor.
func BenchmarkSweep(b *testing.B) {
	grid := benchGrid(b)
	wls := benchWorkloads(b.N)
	eng, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		b.Fatal(err)
	}
	points := grid.Points()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), eng, grid, wls[i], Options{})
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
		b.ReportMetric(float64(points*len(wls[0].Blocks))*float64(b.N)/secs, "analyses/s")
	}
}

// BenchmarkSweepOnePoint measures the one-point sweep a designer runs to
// try one configuration, the benchmark's latency: Run over a grid of one
// of BenchmarkSweep's points, on one worker, after a whole-grid sweep of
// the same blocks has warmed their base analyses. It is a benchmark of its
// own rather than a sub-benchmark of BenchmarkSweep, whose name the CI
// floor reads.
func BenchmarkSweepOnePoint(b *testing.B) {
	grid := benchGrid(b)
	wl := benchWorkloads(1)[0]
	eng, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run(context.Background(), eng, grid, wl, Options{}); err != nil {
		b.Fatal(err)
	}
	one := &Grid{Base: grid.Base, Axes: make([]Axis, len(grid.Axes))}
	for k, ax := range grid.Axes {
		one.Axes[k] = Axis{Param: ax.Param, Values: ax.Values[len(ax.Values)-1:]}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), eng, one, wl, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Variants) != 1 {
			b.Fatalf("got %d variants, want 1", len(res.Variants))
		}
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
