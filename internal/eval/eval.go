package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"facile/internal/baselines"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/uarch"
)

// DefaultSeed is the corpus seed used by the experiments; DefaultTrainSeed
// generates the disjoint training corpus for the learned baselines.
const (
	DefaultSeed      = 1
	DefaultTrainSeed = 1001
)

// Suite is one microarchitecture's evaluation data: prepared blocks and
// measurements for both throughput notions.
type Suite struct {
	Cfg        *uarch.Config
	Benchmarks []bhive.Benchmark
	BlocksU    []*bb.Block
	BlocksL    []*bb.Block
	MeasU      []float64
	MeasL      []float64
}

// BuildSuite prepares blocks and measurements for cfg. Benchmarks that the
// microarchitecture cannot execute are skipped. Measurements run in
// parallel; results are deterministic regardless of parallelism.
func BuildSuite(cfg *uarch.Config, corpus []bhive.Benchmark) *Suite {
	s := &Suite{Cfg: cfg}
	for _, bm := range corpus {
		blockU, err := bb.Build(cfg, bm.Code)
		if err != nil {
			continue
		}
		blockL, err := bb.Build(cfg, bm.LoopCode)
		if err != nil {
			continue
		}
		s.Benchmarks = append(s.Benchmarks, bm)
		s.BlocksU = append(s.BlocksU, blockU)
		s.BlocksL = append(s.BlocksL, blockL)
	}
	s.MeasU = make([]float64, len(s.BlocksU))
	s.MeasL = make([]float64, len(s.BlocksL))
	parallelFor(len(s.BlocksU), func(i int) {
		s.MeasU[i] = bhive.MeasureBlock(s.BlocksU[i], false)
		s.MeasL[i] = bhive.MeasureBlock(s.BlocksL[i], true)
	})
	return s
}

// parallelFor runs fn(0..n-1) on up to GOMAXPROCS workers.
func parallelFor(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Predictors returns the predictor set for a suite, training the learned
// baselines on a disjoint training corpus for the suite's
// microarchitecture. trainN controls the training-corpus size.
func Predictors(cfg *uarch.Config, trainN int) []baselines.Predictor {
	trainCorpus := bhive.Generate(DefaultTrainSeed, trainN)
	var blocks []*bb.Block
	var meas []float64
	for _, bm := range trainCorpus {
		block, err := bb.Build(cfg, bm.Code)
		if err != nil {
			continue
		}
		blocks = append(blocks, block)
		meas = append(meas, bhive.MeasureBlock(block, false))
	}
	return []baselines.Predictor{
		baselines.Facile{},
		baselines.UiCA{},
		baselines.TrainIthemal(blocks, meas),
		baselines.IACA{},
		baselines.OSACA{},
		baselines.LLVMMCA{},
		baselines.TrainDiffTune(blocks),
		baselines.TrainLearningBL(blocks, meas),
		baselines.CQA{},
	}
}

// PredictAll runs pred over the blocks (in parallel), rounding as the paper
// does.
func PredictAll(pred baselines.Predictor, blocks []*bb.Block, loop bool) []float64 {
	out := make([]float64, len(blocks))
	parallelFor(len(blocks), func(i int) {
		out[i] = round2(pred.Predict(blocks[i], loop))
	})
	return out
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}

// ArchesForExperiment returns the standard nine microarchitectures in the
// paper's Table 1/2 order (newest first).
func ArchesForExperiment() []*uarch.Config { return uarch.All() }

func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
