package accuracy

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"facile"
	"facile/internal/bb"
	"facile/internal/metrics"
	"facile/internal/uarch"
)

// DefaultChunk is the streaming granularity: rows are read, batched through
// Engine.AnalyzeBatchN, and folded into the accumulators this many at a
// time, so memory is bounded by the chunk — never by the corpus.
const DefaultChunk = 4096

// RunOptions configures one corpus evaluation.
type RunOptions struct {
	// Engine computes the facile side through AnalyzeBatchN. Construct it
	// with a disabled cache (EngineConfig.CacheSize < 0) for corpus streams:
	// corpus blocks do not repeat, so memoization only churns.
	Engine *facile.Engine
	// Cfg is the target microarchitecture the opponents' blocks are built
	// for. Its name must be served by Engine.
	Cfg *uarch.Config
	// Chunk is the streaming granularity; 0 selects DefaultChunk.
	Chunk int
	// Workers bounds AnalyzeBatchN's concurrency; 0 selects the engine
	// pool size. Results are identical for every value.
	Workers int
	// Opponents are the shoot-out entrants evaluated next to facile.
	Opponents []Opponent
	// MaxSkipNotes caps the recorded skip reasons (default 5).
	MaxSkipNotes int
}

// RunCorpus streams one corpus through facile (via Engine.AnalyzeBatchN)
// and every opponent, returning the per-predictor accuracy. The evaluation
// is one pass: each chunk of rows is batch-analyzed, the opponents score the
// same chunk in parallel, and everything folds into streaming accumulators —
// corpus size affects neither memory nor the result bytes.
//
// Rows whose block the target arch cannot decode are skipped for every
// predictor (with a line-numbered note), keeping all populations aligned;
// rows where only an opponent fails are excluded from that opponent alone.
func RunCorpus(ctx context.Context, opt RunOptions, mode facile.Mode, file string, rd *Reader) (*CorpusResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	chunkSize := opt.Chunk
	if chunkSize <= 0 {
		chunkSize = DefaultChunk
	}
	maxNotes := opt.MaxSkipNotes
	if maxNotes == 0 {
		maxNotes = 5
	}
	modeText, err := mode.MarshalText()
	if err != nil {
		return nil, err
	}
	arch := opt.Cfg.Name
	res := &CorpusResult{Arch: arch, Mode: string(modeText), File: file}
	loop := mode == facile.Loop

	facAcc := &Accumulator{}
	oppAccs := make([]*Accumulator, len(opt.Opponents))
	oppErrs := make([]int64, len(opt.Opponents))
	for i := range oppAccs {
		oppAccs[i] = &Accumulator{}
	}

	rows := make([]Row, 0, chunkSize)
	reqs := make([]facile.Request, 0, chunkSize)
	blocks := make([]*bb.Block, 0, chunkSize)
	preds := make([][]float64, len(opt.Opponents))
	perrs := make([][]error, len(opt.Opponents))
	for i := range preds {
		preds[i] = make([]float64, chunkSize)
		perrs[i] = make([]error, chunkSize)
	}

	var pos int64 // corpus row position, for Opponent.Limit
	for {
		rows = rows[:0]
		for len(rows) < chunkSize {
			row, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		if len(rows) == 0 {
			break
		}
		res.Rows += int64(len(rows))

		// Facile half: one AnalyzeBatchN call per chunk.
		reqs = reqs[:0]
		for i := range rows {
			reqs = append(reqs, facile.Request{Code: rows[i].Code, Arch: arch, Mode: mode})
		}
		results := opt.Engine.AnalyzeBatchN(ctx, reqs, opt.Workers)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		// Shared blocks for the opponents; rows facile rejected are skipped
		// globally (same decode path — the block cannot be built either).
		// Without opponents the blocks are never read, so skip the builds.
		blocks = blocks[:0]
		for i := range rows {
			if results[i].Err != nil {
				blocks = append(blocks, nil)
				res.Skipped++
				if len(res.SkipNotes) < maxNotes {
					res.SkipNotes = append(res.SkipNotes,
						fmt.Sprintf("line %d: %v", rows[i].Line, results[i].Err))
				}
				continue
			}
			if len(opt.Opponents) == 0 {
				blocks = append(blocks, noOpponentBlock)
				continue
			}
			block, err := bb.Build(opt.Cfg, rows[i].Code)
			if err != nil {
				// Unreachable when facile accepted the code; keep the row
				// out of every population if it ever happens.
				blocks = append(blocks, nil)
				res.Skipped++
				if len(res.SkipNotes) < maxNotes {
					res.SkipNotes = append(res.SkipNotes,
						fmt.Sprintf("line %d: %v", rows[i].Line, err))
				}
				continue
			}
			blocks = append(blocks, block)
		}

		// Opponent half: every (opponent, row) cell in parallel, written
		// into per-chunk matrices and folded serially below — results are
		// identical for every worker count.
		parallelFor(len(rows)*len(opt.Opponents), func(flat int) {
			oi, ri := flat/len(rows), flat%len(rows)
			if blocks[ri] == nil {
				return
			}
			opp := opt.Opponents[oi]
			if opp.Limit > 0 && pos+int64(ri) >= opp.Limit {
				perrs[oi][ri] = errLimitReached
				return
			}
			preds[oi][ri], perrs[oi][ri] = opp.Predict(blocks[ri], loop)
		})

		// Fold the chunk, in row order.
		for i := range rows {
			if blocks[i] == nil {
				continue
			}
			facAcc.Add(rows[i].Cycles, results[i].Analysis.Prediction.CyclesPerIteration)
			for oi := range opt.Opponents {
				switch {
				case perrs[oi][i] == errLimitReached:
					// Budget spent: not an error, just unscored.
				case perrs[oi][i] != nil:
					oppErrs[oi]++
				default:
					oppAccs[oi].Add(rows[i].Cycles, metrics.Round2(preds[oi][i]))
				}
				perrs[oi][i] = nil
			}
		}
		pos += int64(len(rows))

		if len(rows) < chunkSize {
			break
		}
	}

	res.Predictors = append(res.Predictors, predictorResult("Facile", facAcc, 0))
	for oi, opp := range opt.Opponents {
		res.Predictors = append(res.Predictors, predictorResult(opp.Name(), oppAccs[oi], oppErrs[oi]))
	}
	return res, nil
}

// errLimitReached is the internal marker for rows past an Opponent.Limit.
var errLimitReached = fmt.Errorf("accuracy: block budget spent")

// noOpponentBlock marks a facile-accepted row in opponent-free runs: the
// fold must count it, but no predictor will ever dereference it.
var noOpponentBlock = &bb.Block{}

func predictorResult(name string, acc *Accumulator, errs int64) PredictorResult {
	return PredictorResult{
		Predictor:    name,
		Blocks:       acc.Blocks(),
		ZeroMeasured: acc.ZeroMeasured(),
		Errors:       errs,
		MAPE:         acc.MAPE() * 100,
		KendallTau:   acc.KendallTau(),
		P50:          APE(acc.PercentileAPE(50)),
		P90:          APE(acc.PercentileAPE(90)),
		P99:          APE(acc.PercentileAPE(99)),
	}
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
	var next atomic.Int64
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
