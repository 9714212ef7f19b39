package eval

import (
	"fmt"
	"math"

	"facile/internal/accuracy"
	"facile/internal/baselines"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/metrics"
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
	accuracy.ParallelFor(len(s.BlocksU), func(i int) {
		s.MeasU[i] = bhive.MeasureBlock(s.BlocksU[i], false)
		s.MeasL[i] = bhive.MeasureBlock(s.BlocksL[i], true)
	})
	return s
}

// paperField is the Table 2 and Figure 5 predictor set, as baselines
// registry names in the paper's row order.
var paperField = []string{"facile", "uica", "ithemal", "iaca", "osaca", "llvm-mca", "difftune", "learning-bl", "cqa"}

// field builds the named registry predictors for cfg, training the learned
// ones on a disjoint corpus of trainN blocks. The experiments name only
// in-process predictors, so an error is a programming error.
func field(cfg *uarch.Config, names []string, trainN int) []baselines.Predictor {
	preds, _, err := baselines.Field(cfg, names, DefaultTrainSeed, trainN, nil)
	if err != nil {
		panic(err)
	}
	return preds
}

// PredictAll runs pred over the blocks (in parallel), rounding as the paper
// does. A block the predictor fails on holds NaN.
func PredictAll(pred baselines.Predictor, blocks []*bb.Block, loop bool) []float64 {
	out := make([]float64, len(blocks))
	accuracy.ParallelFor(len(blocks), func(i int) {
		v, err := pred.Predict(blocks[i], loop)
		if err != nil {
			v = math.NaN()
		}
		out[i] = metrics.Round2(v)
	})
	return out
}

// score folds one (measurements, predictions) cell through the streaming
// accumulator that cmd/facile-bench reports with, returning the MAPE (a
// fraction) and Kendall's tau-b. NaN predictions stay out of the cell (see
// Accumulator.Add).
func score(measured, predicted []float64) (mape, tau float64) {
	var acc accuracy.Accumulator
	for i, p := range predicted {
		acc.Add(measured[i], p)
	}
	return acc.MAPE(), acc.KendallTau()
}

// ArchesForExperiment returns the standard nine microarchitectures in the
// paper's Table 1/2 order (newest first).
func ArchesForExperiment() []*uarch.Config { return uarch.All() }

func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
