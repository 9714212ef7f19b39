package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"facile"
	"facile/internal/bhive"
)

// frontierGrid reads the committed example grid.
func frontierGrid(t *testing.T) *Grid {
	t.Helper()
	data, err := os.ReadFile("../../testdata/sweep/skl_frontier.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loopBlocks returns n generated loop blocks.
func loopBlocks(seed int64, n int) [][]byte {
	var blocks [][]byte
	for _, g := range bhive.GenerateBlocks(seed, n) {
		blocks = append(blocks, g.LoopCode)
	}
	return blocks
}

// withTableBudget sets tableBudget to n for the rest of the test.
func withTableBudget(t *testing.T, n int) {
	old := tableBudget
	tableBudget = n
	t.Cleanup(func() { tableBudget = old })
}

// baseStats returns the Stats a fresh engine reports after one batch of
// the workload's base analyses: what a sweep's base analyses must count.
func baseStats(t *testing.T, wl Workload) facile.EngineStats {
	t.Helper()
	eng := testEngine(t)
	reqs := requests(wl)
	for i := range reqs {
		reqs[i].Arch = "SKL"
	}
	eng.AnalyzeBatchN(context.Background(), reqs, 0)
	return eng.Stats()
}

// TestSweepStats: a sweep counts one cache resolution per block for its
// base analyses, a miss for a new block and a hit for a repeated one, as a
// batch of them counts, and one uncached analysis per pair evaluated; a
// sweep whose base fails on a block of a later table group counts every
// block's base resolution, the blocks after the failing one included, and
// no pair.
func TestSweepStats(t *testing.T) {
	grid := frontierGrid(t)
	blocks := loopBlocks(5, 12)
	blocks = append(blocks, blocks[3]) // a hit within the cold sweep
	wl := Workload{Blocks: blocks, Mode: facile.Loop}
	pairs := uint64(grid.Points() * len(blocks))
	want := baseStats(t, wl)
	if want.Hits != 1 || want.Misses != uint64(len(blocks)-1) {
		t.Fatalf("a batch of the base analyses counts %d hits, %d misses", want.Hits, want.Misses)
	}
	for _, workers := range []int{1, 2, 4} {
		eng := testEngine(t)
		for _, run := range []string{"cold", "warm"} {
			if _, err := Run(context.Background(), eng, grid, wl, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			want.Misses += pairs
			if got := eng.Stats(); got.Hits != want.Hits || got.Misses != want.Misses {
				t.Errorf("%d workers, %s sweep: %d hits, %d misses; want %d, %d", workers, run, got.Hits, got.Misses, want.Hits, want.Misses)
			}
			want.Hits += uint64(len(blocks))
		}
		want = baseStats(t, wl)
	}

	// The base fails on block 4 of 6, each block its own table group.
	failing := Workload{Blocks: append(loopBlocks(6, 4), []byte{0xff}, blocks[0]), Mode: facile.Loop}
	want = baseStats(t, failing)
	_, berr := testEngine(t).Analyze(context.Background(), facile.Request{Code: []byte{0xff}, Arch: "SKL", Mode: facile.Loop})
	if berr == nil {
		t.Fatal("the failing block analyzes")
	}
	for _, budget := range []int{tableBudget, 1} {
		withTableBudget(t, budget)
		eng := testEngine(t)
		_, err := Run(context.Background(), eng, grid, failing, Options{Workers: 2})
		if err == nil || err.Error() != `sweep: base "SKL", block 4: `+berr.Error() {
			t.Fatalf("budget %d: %v, want block 4's %v", budget, err, berr)
		}
		if got := eng.Stats(); got.Hits != want.Hits || got.Misses != want.Misses {
			t.Errorf("budget %d: %d hits, %d misses; want %d, %d", budget, got.Hits, got.Misses, want.Hits, want.Misses)
		}
	}
}

// TestTableGroups: tables that span several groups of blocks, down to one
// block a group, give the same Result as one group, at any worker count,
// for a grid with failing points.
func TestTableGroups(t *testing.T) {
	grid := &Grid{Base: "SKL", Axes: []Axis{
		{Param: "issue_width", Values: []json.RawMessage{json.RawMessage("0"), json.RawMessage("3"), json.RawMessage("6")}},
		{Param: "fma_latency", Values: []json.RawMessage{json.RawMessage("0"), json.RawMessage("4")}},
		{Param: "role_ports.fma", Values: []json.RawMessage{json.RawMessage("[]"), json.RawMessage("[0,1]")}},
	}}
	wl := Workload{Blocks: propertyBlocks(9, true), Mode: facile.Loop}
	one := mustRunWL(t, grid, wl, 1)
	if len(one.Failed) == 0 || len(one.Variants) == 0 {
		t.Fatalf("%d variants, %d failed: the grid tests nothing", len(one.Variants), len(one.Failed))
	}
	whole, err := evaluate(context.Background(), testEngine(t), grid, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One block a group, and groups of 5 with a partial last one.
	for _, budget := range []int{1, 5 * (whole.nv + len(whole.live))} {
		withTableBudget(t, budget)
		pl, err := evaluate(context.Background(), testEngine(t), grid, wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pl.group >= len(wl.Blocks) {
			t.Fatalf("budget %d: one group of %d blocks", budget, pl.group)
		}
		for _, workers := range []int{1, 2, 4} {
			if got := mustRunWL(t, grid, wl, workers); !reflect.DeepEqual(got, one) {
				t.Errorf("budget %d (groups of %d blocks), %d workers: the result differs from one group's", budget, pl.group, workers)
			}
		}
	}
}

func mustRunWL(t *testing.T, g *Grid, wl Workload, workers int) *Result {
	t.Helper()
	res, err := Run(context.Background(), testEngine(t), g, wl, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cancelAfter is a context that reports itself cancelled from its nth Err
// call on.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidPass: a context cancelled while the blocks' items run, in
// the first table group or a later one, fails the sweep with its error.
func TestCancelMidPass(t *testing.T) {
	grid := frontierGrid(t)
	wl := Workload{Blocks: loopBlocks(8, 16), Mode: facile.Loop}
	for _, budget := range []int{tableBudget, 1} {
		withTableBudget(t, budget)
		for _, after := range []int64{1, 5, 20} {
			for _, workers := range []int{1, 2} {
				ctx := &cancelAfter{Context: context.Background()}
				ctx.n.Store(after)
				if _, err := Run(ctx, testEngine(t), grid, wl, Options{Workers: workers}); !errors.Is(err, context.Canceled) {
					t.Errorf("budget %d, cancelled after %d checks, %d workers: %v", budget, after, workers, err)
				}
			}
		}
	}
}
