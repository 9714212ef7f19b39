package facile_test

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"facile"
	"facile/internal/bhive"
)

// TestAnalyzeEachMatchesBatch: AnalyzeEach yields every index exactly once,
// and what it yields — kept past yield, since every analysis it yields is
// durable — equals AnalyzeBatchN's result and a fresh uncached engine's,
// after every worker has moved on, at every worker count. The batch mixes
// cached arches and variants, all three details (a variant at
// DetailPrediction follows one at DetailFull on the same worker, so a
// scratch analysis that kept an earlier item's speedups or report fails),
// an undecodable block and an oversized one; a cancelled context yields
// its error at every index.
func TestAnalyzeEachMatchesBatch(t *testing.T) {
	const maxCode = 256
	reg := facile.NewArchRegistry()
	var variants []*facile.Variant
	for i, ov := range []string{`{"issue_width":3}`, `{"load_latency":9}`, `{"macro_fusion":false}`} {
		v, err := reg.DeriveVariant(fmt.Sprintf("SKL~e%d", i), "SKL", []byte(ov))
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, v)
	}
	var blocks [][]byte
	for _, g := range bhive.GenerateBlocks(21, 10) {
		blocks = append(blocks, g.LoopCode)
	}
	blocks = append(blocks,
		decode(t, "d9c0"),                          // x87: undecodable
		bytes.Repeat(decode(t, "4801d8"), maxCode), // over MaxCodeBytes
		blocks[0],
	)
	var reqs []facile.Request
	for _, code := range blocks {
		for _, mode := range []facile.Mode{facile.Loop, facile.Unroll} {
			for _, v := range variants {
				reqs = append(reqs, facile.Request{Code: code, Mode: mode, Variant: v})
			}
			for _, arch := range []string{"SKL", "ICL"} {
				reqs = append(reqs, facile.Request{Code: code, Arch: arch, Mode: mode})
			}
		}
	}
	for i := range reqs {
		reqs[i].Detail = facile.Detail(2 - i%3)
	}
	cfg := facile.EngineConfig{Registry: reg, Workers: 4, MaxCodeBytes: maxCode}
	freshCfg := cfg
	freshCfg.CacheSize, freshCfg.Workers = -1, 1

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{context.Background(), cancelled} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("workers=%d, cancelled=%v", workers, ctx.Err() != nil)
			counts := make([]atomic.Int32, len(reqs))
			got := make([]facile.AnalysisResult, len(reqs))
			newTestEngine(t, cfg).AnalyzeEach(ctx, reqs, workers, func(i int, a *facile.Analysis, err error) {
				counts[i].Add(1)
				got[i] = facile.AnalysisResult{Analysis: a, Err: err}
			})
			want := newTestEngine(t, cfg).AnalyzeBatchN(ctx, reqs, workers)
			for i := range reqs {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("%s: index %d yielded %d times, want once", name, i, n)
				}
				g, w := got[i], want[i]
				if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
					t.Fatalf("%s, request %d: AnalyzeEach error %v, AnalyzeBatchN %v", name, i, g.Err, w.Err)
				}
				if (g.Err == nil) == (g.Analysis == nil) {
					t.Fatalf("%s, request %d: yielded analysis %v with error %v", name, i, g.Analysis, g.Err)
				}
				if !facile.EqualAnalyses(g.Analysis, w.Analysis) {
					t.Fatalf("%s, request %d (%v): AnalyzeEach\n%+v\nAnalyzeBatchN\n%+v", name, i, reqs[i].Detail, g.Analysis, w.Analysis)
				}
				if ctx.Err() != nil {
					continue
				}
				fresh, err := newTestEngine(t, freshCfg).Analyze(ctx, reqs[i])
				if (err == nil) != (g.Err == nil) || (err != nil && err.Error() != g.Err.Error()) {
					t.Fatalf("%s, request %d: AnalyzeEach error %v, fresh %v", name, i, g.Err, err)
				}
				if !facile.EqualAnalyses(g.Analysis, fresh) {
					t.Fatalf("%s, request %d (%v): AnalyzeEach\n%+v\nfresh\n%+v", name, i, reqs[i].Detail, g.Analysis, fresh)
				}
			}
		}
	}
}

// TestAnalyzeEachDurableWithoutVariant: an analysis of a request without
// Variant outlives yield, on an uncached engine too, so a caller may keep
// the pointer it is handed (the server's batch endpoint does). Kept
// pointers still equal a serial batch's results after every worker has
// moved on to later requests.
func TestAnalyzeEachDurableWithoutVariant(t *testing.T) {
	var reqs []facile.Request
	for _, g := range bhive.GenerateBlocks(5, 16) {
		reqs = append(reqs, facile.Request{Code: g.LoopCode, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull})
	}
	ctx := context.Background()
	want := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1}).AnalyzeBatchN(ctx, reqs, 1)
	for _, cacheSize := range []int{0, -1} {
		got := make([]*facile.Analysis, len(reqs))
		e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: cacheSize})
		e.AnalyzeEach(ctx, reqs, 2, func(i int, a *facile.Analysis, err error) {
			if err != nil {
				t.Errorf("CacheSize %d, request %d: %v", cacheSize, i, err)
			}
			got[i] = a
		})
		for i := range reqs {
			if !facile.EqualAnalyses(got[i], want[i].Analysis) {
				t.Fatalf("CacheSize %d, request %d: kept analysis\n%+v\nwant\n%+v", cacheSize, i, got[i], want[i].Analysis)
			}
		}
	}
}
