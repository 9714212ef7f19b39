// Benchmarks that regenerate every table and figure of the paper's
// evaluation (docs/ARCHITECTURE.md, "Evaluation pipeline") plus
// per-component and per-predictor micro-benchmarks.
//
// The table/figure benches run on reduced corpora so that `go test -bench=.`
// completes quickly; `cmd/eval` runs the full-size experiments. Accuracy
// results are attached to the benchmark output via b.ReportMetric (MAPE in
// percent), so the benchmark log doubles as a compact experiment record.
package facile_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"facile"
	"facile/internal/baselines"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/cycleratio"
	"facile/internal/eval"
	"facile/internal/pipesim"
	"facile/internal/uarch"
)

const (
	benchCorpusN = 120
	benchTrainN  = 120
)

// BenchmarkTable1_Configs regenerates Table 1 (the µarch inventory).
func BenchmarkTable1_Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Table1()
	}
}

// BenchmarkTable2_Accuracy regenerates Table 2 on a reduced corpus for a
// representative subset of microarchitectures and reports Facile's and
// uiCA's MAPE on BHiveU/BHiveL as metrics.
func BenchmarkTable2_Accuracy(b *testing.B) {
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows, _ = eval.Table2(benchCorpusN, benchTrainN,
			[]*uarch.Config{uarch.MustByName("RKL"), uarch.MustByName("SKL"), uarch.MustByName("SNB")})
	}
	for _, row := range rows {
		if row.Predictor == "Facile" || row.Predictor == "uiCA" {
			b.ReportMetric(row.MAPEU*100, row.Arch+"_"+row.Predictor+"_mapeU_%")
			b.ReportMetric(row.MAPEL*100, row.Arch+"_"+row.Predictor+"_mapeL_%")
		}
	}
}

// BenchmarkTable3_Ablations regenerates the component-ablation study.
func BenchmarkTable3_Ablations(b *testing.B) {
	var rows []eval.VariantRow
	for i := 0; i < b.N; i++ {
		rows, _ = eval.Table3(benchCorpusN, []*uarch.Config{uarch.MustByName("RKL")})
	}
	for _, row := range rows {
		if row.Variant == "Facile" || row.Variant == "Facile w/o Ports" {
			if row.HasU {
				// Metric units must not contain whitespace.
				name := strings.ReplaceAll(row.Variant, " ", "-")
				name = strings.ReplaceAll(name, "/", "")
				b.ReportMetric(row.MAPEU*100, name+"_mapeU_%")
			}
		}
	}
}

// BenchmarkTable4_Idealization regenerates the idealization-speedup table.
func BenchmarkTable4_Idealization(b *testing.B) {
	var rows []eval.SpeedupRow
	for i := 0; i < b.N; i++ {
		rows, _ = eval.Table4(benchCorpusN, []*uarch.Config{uarch.MustByName("SNB"), uarch.MustByName("RKL")})
	}
	for _, row := range rows {
		b.ReportMetric(row.Speedups[core.Predec], row.Arch+"_predec_speedup")
		b.ReportMetric(row.Speedups[core.Ports], row.Arch+"_ports_speedup")
	}
}

// BenchmarkFigure3_Heatmaps regenerates the measured-vs-predicted heatmaps.
func BenchmarkFigure3_Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.Figure3(benchCorpusN, uarch.MustByName("RKL"))
	}
}

// BenchmarkFigure4_ComponentTimes regenerates the per-component timing
// distributions.
func BenchmarkFigure4_ComponentTimes(b *testing.B) {
	var tpu []eval.ComponentTime
	for i := 0; i < b.N; i++ {
		tpu, _, _ = eval.Figure4(benchCorpusN, uarch.MustByName("SKL"))
	}
	for _, ct := range tpu {
		b.ReportMetric(ct.MeanMs*1000, ct.Name+"_usPerBlock")
	}
}

// BenchmarkFigure5_PredictorTimes regenerates the per-predictor timing
// comparison and reports each predictor's time per benchmark.
func BenchmarkFigure5_PredictorTimes(b *testing.B) {
	var rows []eval.PredictorTime
	for i := 0; i < b.N; i++ {
		rows, _ = eval.Figure5(benchCorpusN, benchTrainN, uarch.MustByName("SKL"))
	}
	for _, r := range rows {
		b.ReportMetric(r.MsU*1000, r.Name+"_usPerBlock")
	}
}

// BenchmarkFigure6_BottleneckFlow regenerates the bottleneck-evolution
// analysis.
func BenchmarkFigure6_BottleneckFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.BottleneckFlow(benchCorpusN,
			[]*uarch.Config{uarch.MustByName("SNB"), uarch.MustByName("HSW"), uarch.MustByName("CLX"), uarch.MustByName("RKL")})
	}
}

// --- Micro-benchmarks: predictors ------------------------------------------

func benchBlocks(b *testing.B, cfg *uarch.Config, loop bool) []*bb.Block {
	b.Helper()
	corpus := bhive.Generate(eval.DefaultSeed, benchCorpusN)
	var blocks []*bb.Block
	for _, bm := range corpus {
		code := bm.Code
		if loop {
			code = bm.LoopCode
		}
		block, err := bb.Build(cfg, code)
		if err != nil {
			continue
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// BenchmarkPredictor measures the per-block cost of Facile versus the
// simulation-based reference (the headline efficiency claim: almost two
// orders of magnitude).
func BenchmarkPredictor(b *testing.B) {
	preds := []baselines.Predictor{
		baselines.Facile{},
		baselines.UiCA{},
		baselines.LLVMMCA{},
		baselines.OSACA{},
		baselines.IACA{},
		baselines.CQA{},
	}
	for _, pred := range preds {
		for _, mode := range []string{"TPU", "TPL"} {
			loop := mode == "TPL"
			b.Run(fmt.Sprintf("%s/%s", pred.Name(), mode), func(b *testing.B) {
				blocks := benchBlocks(b, uarch.MustByName("SKL"), loop)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pred.Predict(blocks[i%len(blocks)], loop)
				}
			})
		}
	}
}

// BenchmarkComponent measures each Facile component in isolation
// (Figure 4's microdata).
func BenchmarkComponent(b *testing.B) {
	comps := []struct {
		name string
		fn   func(*bb.Block)
	}{
		{"Predec", func(bl *bb.Block) { core.PredecBound(bl, core.TPU) }},
		{"SimplePredec", func(bl *bb.Block) { core.SimplePredecBound(bl, core.TPU) }},
		{"Dec", func(bl *bb.Block) { core.DecBound(bl) }},
		{"SimpleDec", func(bl *bb.Block) { core.SimpleDecBound(bl) }},
		{"DSB", func(bl *bb.Block) { core.DSBBound(bl) }},
		{"LSD", func(bl *bb.Block) { core.LSDBound(bl) }},
		{"Issue", func(bl *bb.Block) { core.IssueBound(bl) }},
		{"Ports", func(bl *bb.Block) { core.PortsBound(bl) }},
		{"Precedence", func(bl *bb.Block) { core.PrecedenceBound(bl) }},
	}
	for _, c := range comps {
		b.Run(c.name, func(b *testing.B) {
			blocks := benchBlocks(b, uarch.MustByName("SKL"), false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.fn(blocks[i%len(blocks)])
			}
		})
	}
}

// BenchmarkDecodeAndPrepare measures the shared "overhead" stage
// (disassembly + descriptor lookup + fusion marking).
func BenchmarkDecodeAndPrepare(b *testing.B) {
	corpus := bhive.Generate(eval.DefaultSeed, benchCorpusN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm := corpus[i%len(corpus)]
		if _, err := bb.Build(uarch.MustByName("SKL"), bm.Code); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures the reference simulator on its own.
func BenchmarkSimulator(b *testing.B) {
	blocks := benchBlocks(b, uarch.MustByName("SKL"), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipesim.Run(blocks[i%len(blocks)], pipesim.Options{Loop: true})
	}
}

// --- Ablation benchmarks for load-bearing design choices ------------------

// BenchmarkAblationPorts compares the pairwise port-combination heuristic
// (paper §4.8) against the exhaustive subset-enumeration bound it replaces.
// The two return identical results on corpus blocks (property-tested in
// internal/core); this bench quantifies the efficiency win.
func BenchmarkAblationPorts(b *testing.B) {
	blocks := benchBlocks(b, uarch.MustByName("SKL"), false)
	b.Run("Pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PortsBound(blocks[i%len(blocks)])
		}
	})
	b.Run("ExactSubsets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PortsBoundExact(blocks[i%len(blocks)])
		}
	})
}

// BenchmarkAblationCycleRatio compares two exact solvers of the precedence
// bound (paper §4.9) on the same blocks: the graph oracle, Karp's theorem on
// the prebuilt dependence graphs, and the carried-value summary the
// analysis uses, which starts from the block and builds no graph (its time
// includes the summary's construction and the critical chain).
func BenchmarkAblationCycleRatio(b *testing.B) {
	blocks := benchBlocks(b, uarch.MustByName("SKL"), true)
	graphs := make([]*cycleratio.Graph, len(blocks))
	for i, block := range blocks {
		graphs[i], _ = core.BuildDependenceGraph(block)
	}
	b.Run("Graph", func(b *testing.B) {
		s := cycleratio.NewSolver()
		for i := 0; i < b.N; i++ {
			if _, err := s.MaxRatio(graphs[i%len(graphs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CarriedSummary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PrecedenceBound(blocks[i%len(blocks)])
		}
	})
}

// BenchmarkAblationPredec compares the full predecoder model against the
// SimplePredec variant (the paper's Table 3 shows the accuracy cost; this
// shows the runtime cost of the detailed model).
func BenchmarkAblationPredec(b *testing.B) {
	blocks := benchBlocks(b, uarch.MustByName("SKL"), false)
	b.Run("Full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PredecBound(blocks[i%len(blocks)], core.TPU)
		}
	})
	b.Run("Simple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SimplePredecBound(blocks[i%len(blocks)], core.TPU)
		}
	})
}

// BenchmarkPublicAPI measures the end-to-end one-shot entry point — the
// default engine's Analyze path, warm after the first pass over the corpus.
func BenchmarkPublicAPI(b *testing.B) {
	corpus := bhive.Generate(eval.DefaultSeed, benchCorpusN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm := corpus[i%len(corpus)]
		if _, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop); err != nil {
			b.Fatal(err)
		}
	}
}

// uncachedEngine builds the one-shot baseline: an engine with memoization
// disabled, so every call pays the full decode+predict cost.
func uncachedEngine(b *testing.B, archs ...string) *facile.Engine {
	b.Helper()
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: archs, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// --- Hot-path benchmarks (tracked in BENCH_2.json by the CI bench job) ------

// BenchmarkPredict measures one full core prediction per op on prepared
// corpus blocks — the analysis-core hot path behind every cache miss. Run
// with -benchmem: the bound-vector refactor's claim is a near-zero
// allocs/op here.
func BenchmarkPredict(b *testing.B) {
	blocks := benchBlocks(b, uarch.MustByName("SKL"), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Predict(blocks[i%len(blocks)], core.TPL, core.Options{})
	}
}

// BenchmarkSpeedups compares the one-pass counterfactual path (compute the
// bound vector once, recombine per component) against the N+1-predictions
// algorithm it replaced (re-running the full predictor per exclusion set,
// reconstructed here via Options.Include).
func BenchmarkSpeedups(b *testing.B) {
	blocks := benchBlocks(b, uarch.MustByName("SKL"), true)
	b.Run("Recombine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.IdealizationSpeedups(blocks[i%len(blocks)], core.TPL)
		}
	})
	b.Run("NPlus1Predictions", func(b *testing.B) {
		comps := core.SpeedupComponents(core.TPL)
		for i := 0; i < b.N; i++ {
			block := blocks[i%len(blocks)]
			base := core.Predict(block, core.TPL, core.Options{}).TP
			for _, c := range comps {
				without := core.Predict(block, core.TPL,
					core.Options{Include: core.AllComponents.Without(c)})
				if without.TP > 0 {
					_ = base / without.TP
				}
			}
		}
	})
}

// BenchmarkExplain measures the full bottleneck report: the one-shot path
// re-derives everything per call; the warm engine serves the memoized
// rendered report.
func BenchmarkExplain(b *testing.B) {
	corpus := bhive.Generate(eval.DefaultSeed, 50)
	var codes [][]byte
	for _, bm := range corpus {
		if _, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop); err == nil {
			codes = append(codes, bm.LoopCode)
		}
	}
	if len(codes) == 0 {
		b.Fatal("no valid corpus blocks")
	}
	b.Run("OneShot", func(b *testing.B) {
		engine := uncachedEngine(b, "SKL")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := explainText(engine, codes[i%len(codes)], "SKL", facile.Loop); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EngineWarm", func(b *testing.B) {
		engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
		if err != nil {
			b.Fatal(err)
		}
		for _, code := range codes {
			if _, err := explainText(engine, code, "SKL", facile.Loop); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := explainText(engine, codes[i%len(codes)], "SKL", facile.Loop); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Engine benchmarks ------------------------------------------------------

// engineBatchReqs builds a batch of n requests cycling over the valid blocks
// of a small corpus — the repeated-block workload of a superoptimizer search
// loop or a BHive-scale evaluation.
func engineBatchReqs(b *testing.B, n int) []blockReq {
	b.Helper()
	corpus := bhive.Generate(eval.DefaultSeed, 50)
	var distinct []blockReq
	for _, bm := range corpus {
		if _, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop); err != nil {
			continue
		}
		distinct = append(distinct, blockReq{
			Code: bm.LoopCode, Arch: "SKL", Mode: facile.Loop,
		})
	}
	if len(distinct) == 0 {
		b.Fatal("no valid corpus blocks")
	}
	reqs := make([]blockReq, n)
	for i := range reqs {
		reqs[i] = distinct[i%len(distinct)]
	}
	return reqs
}

// BenchmarkEngineVsPredict compares the engine against the one-shot Predict
// path on a batch of 1000 repeated blocks (~50 distinct). One benchmark
// iteration processes the whole batch, so ns/op numbers are directly
// comparable across the three sub-benchmarks; the engine variants exceed the
// one-shot path by well over an order of magnitude once the cache is warm.
func BenchmarkEngineVsPredict(b *testing.B) {
	const batchSize = 1000
	reqs := engineBatchReqs(b, batchSize)

	b.Run("OneShotPredict", func(b *testing.B) {
		engine := uncachedEngine(b, "SKL")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("EngineSerial", func(b *testing.B) {
		engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("EngineBatch", func(b *testing.B) {
		engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range predictBatch(engine, reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkAnalyzeWarm quantifies the consolidation win of the unified
// entrypoint: a warm full-detail Analyze resolves its cache entry exactly
// once and returns the memoized Analysis (prediction + bounds + speedups +
// report), where the legacy surface answered the same three questions with
// three separate lookups. Cache resolutions per op are reported as a metric
// from the engine's own stats, making the 1-vs-3 claim visible in the
// benchmark log.
func BenchmarkAnalyzeWarm(b *testing.B) {
	const batchSize = 200
	reqs := engineBatchReqs(b, batchSize)
	warm := func(b *testing.B) *facile.Engine {
		b.Helper()
		engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			if _, err := explainText(engine, r.Code, r.Arch, r.Mode); err != nil {
				b.Fatal(err)
			}
		}
		return engine
	}
	reportResolutions := func(b *testing.B, engine *facile.Engine, before facile.EngineStats) {
		b.Helper()
		after := engine.Stats()
		if miss := after.Misses - before.Misses; miss != 0 {
			b.Fatalf("warm run missed the cache %d times", miss)
		}
		b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N*batchSize), "resolutions/block")
	}
	b.Run("AnalyzeFullDetail", func(b *testing.B) {
		engine := warm(b)
		before := engine.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				req := facile.Request{Code: r.Code, Arch: r.Arch, Mode: r.Mode, Detail: facile.DetailFull}
				if _, err := engine.Analyze(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		reportResolutions(b, engine, before)
	})
	b.Run("ThreeNarrowCalls", func(b *testing.B) {
		engine := warm(b)
		before := engine.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
				if _, err := speedupMap(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
				if _, err := explainText(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		reportResolutions(b, engine, before)
	})
}

// BenchmarkEngineColdCache measures the worst case for the engine: 1000
// *distinct* blocks on a fresh engine, so every request misses the
// prediction cache. Serially a caching engine loses to an uncached one here
// (the cache retains every block, raising GC pressure, with no memoization
// payoff) — that is why CacheSize: -1 is the right configuration for
// non-repeating streams. EngineFreshBatch shows the worker pool reclaiming
// the win on the same workload.
func BenchmarkEngineColdCache(b *testing.B) {
	corpus := bhive.Generate(eval.DefaultSeed, 1000)
	var reqs []blockReq
	for _, bm := range corpus {
		if _, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop); err != nil {
			continue
		}
		reqs = append(reqs, blockReq{Code: bm.LoopCode, Arch: "SKL", Mode: facile.Loop})
	}
	b.Run("OneShotPredictDistinct", func(b *testing.B) {
		engine := uncachedEngine(b, "SKL")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("EngineFreshSerial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range reqs {
				if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("EngineFreshBatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range predictBatch(engine, reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkAnalyzeWarmParallel is the serving-tier contention benchmark
// (tracked in BENCH_9.json): many workers resolving warm full-detail Analyze
// calls concurrently, where the cache lookup IS the whole operation. Sharded
// routes each key to one of N independent LRU shards; SingleShard forces the
// pre-sharding layout (CacheShards: 1), where every lookup serializes on one
// mutex. The gap between the sub-benchmarks is the sharding win, and it
// grows with the number of goroutines contending for the lock, which
// GOMAXPROCS sets. On a 2-vCPU x86-64 host (4 runs each): at -cpu 1 the
// two tie (Sharded 287–306 ns/op, SingleShard 294–315), which shows that
// sharding adds no per-lookup overhead; at -cpu 2 they still overlap
// (358–392 against 371–396); at -cpu 8, where more goroutines than cores
// are preempted while holding the one lock, Sharded reads 324–342 and
// SingleShard 498–540.
func BenchmarkAnalyzeWarmParallel(b *testing.B) {
	const batchSize = 200
	reqs := engineBatchReqs(b, batchSize)
	run := func(b *testing.B, shards int) {
		engine, err := facile.NewEngine(facile.EngineConfig{
			Archs: []string{"SKL"}, CacheShards: shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
				b.Fatal(err)
			}
		}
		before := engine.Stats()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				r := reqs[i%len(reqs)]
				i++
				req := facile.Request{Code: r.Code, Arch: r.Arch, Mode: r.Mode, Detail: facile.DetailFull}
				if _, err := engine.Analyze(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		if miss := engine.Stats().Misses - before.Misses; miss != 0 {
			b.Fatalf("warm parallel run missed the cache %d times", miss)
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "blocks/s")
		}
	}
	b.Run("Sharded", func(b *testing.B) { run(b, 0) })
	b.Run("SingleShard", func(b *testing.B) { run(b, 1) })
}

// BenchmarkSnapshotWarmStart measures time-to-first-hit after a restart
// (tracked in BENCH_9.json): one iteration boots a fresh engine and serves
// the whole working set once. WarmStart first imports a snapshot exported by
// the previous "process" — off the timer, the way facile-serve imports before
// the listener takes traffic — so the serving pass runs entirely on cache
// hits; ColdStart computes every distinct block on first encounter. The
// ns/op gap is the request latency the -snapshot flag removes from the
// post-restart warmup window.
func BenchmarkSnapshotWarmStart(b *testing.B) {
	const batchSize = 200
	reqs := engineBatchReqs(b, batchSize)
	donor, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range reqs {
		req := facile.Request{Code: r.Code, Arch: r.Arch, Mode: r.Mode, Detail: facile.DetailFull}
		if _, err := donor.Analyze(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := donor.ExportSnapshot(&snap, 0); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, warmStart bool) {
		for i := 0; i < b.N; i++ {
			engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
			if err != nil {
				b.Fatal(err)
			}
			if warmStart {
				b.StopTimer()
				if _, _, err := engine.ImportSnapshot(context.Background(), bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			for _, r := range reqs {
				if _, err := predict(engine, r.Code, r.Arch, r.Mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("ColdStart", func(b *testing.B) { run(b, false) })
	b.Run("WarmStart", func(b *testing.B) { run(b, true) })
}

// BenchmarkNewArchRegistry times building a registry of the nine built-in
// microarchitectures, which every FuzzLoadSpec input pays for.
func BenchmarkNewArchRegistry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if facile.NewArchRegistry().Has("SKL") != true {
			b.Fatal("no SKL")
		}
	}
}
