package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"facile"
)

// Workload is the block set a sweep evaluates every design point on.
type Workload struct {
	// Blocks holds the raw machine code of each basic block.
	Blocks [][]byte
	// Mode is the throughput notion for the whole sweep.
	Mode facile.Mode
}

// Options tunes a sweep run.
type Options struct {
	// Workers bounds how many analyses the sweep computes at once; it is
	// the workers argument of the engine's batch calls. Values <= 0, or
	// above the engine's pool size, select the pool size.
	Workers int
}

// ComponentRate is one component's bottleneck rate over a workload: the
// percentage of blocks whose breakdown flags the component as a bottleneck.
type ComponentRate struct {
	Component string  `json:"component"`
	Pct       float64 `json:"pct"`
}

// ComponentShift is one component's bottleneck-rate shift between the base
// and a variant — the interpretability payload of a frontier row ("the
// issue bound stops binding on 42% of blocks" reads as DeltaPP = -42).
type ComponentShift struct {
	Component  string  `json:"component"`
	BasePct    float64 `json:"base_pct"`
	VariantPct float64 `json:"variant_pct"`
	DeltaPP    float64 `json:"delta_pp"`
}

// VariantResult is one ranked frontier row.
type VariantResult struct {
	Rank    int             `json:"rank"`
	Name    string          `json:"name"`
	Overlay json.RawMessage `json:"overlay,omitempty"`
	// GeomeanSpeedup is the geometric-mean per-block speedup of the
	// variant versus the base (values above 1 mean the variant is faster).
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	// Shifts carries every component's bottleneck-rate shift, in pipeline
	// order.
	Shifts []ComponentShift `json:"bottleneck_shifts"`
}

// FailedVariant is a design point the sweep could not evaluate: a grid
// value combination the spec validator rejects, or a variant some workload
// block has no instruction descriptors for.
type FailedVariant struct {
	Name    string          `json:"name"`
	Overlay json.RawMessage `json:"overlay,omitempty"`
	Error   string          `json:"error"`
}

// Result is a completed sweep: the ranked frontier plus the base context
// the deltas read against.
type Result struct {
	Base   string      `json:"base"`
	Mode   facile.Mode `json:"mode"`
	Blocks int         `json:"blocks"`
	Points int         `json:"points"`
	// BaseGeomeanCycles is the geomean predicted cycles/iteration of the
	// workload on the base.
	BaseGeomeanCycles float64 `json:"base_geomean_cycles"`
	// BaseRates holds the base's per-component bottleneck rates, in
	// pipeline order.
	BaseRates []ComponentRate `json:"base_bottleneck_rates"`
	// Variants is the ranked frontier: geomean speedup descending, ties
	// broken by name ascending.
	Variants []VariantResult `json:"variants"`
	// Failed lists unevaluable design points, name ascending.
	Failed []FailedVariant `json:"failed,omitempty"`
}

// groupPairs is about how many (block, design point) analyses one batch
// call of Run carries: whole blocks, every live point of a block back to
// back. Groups bound the requests and compact results Run holds at once,
// let a point that fails stop being analyzed, and keep a sweep of few
// points (one, as a designer trying one configuration makes) to a single
// call. On the 108-point example grid over 32 blocks, groups of 256, 1024
// or all pairs sweep equally fast; the whole sweep in one group allocates
// 3.5 times the bytes.
const groupPairs = 256

// Run executes a sweep: one cached base pass over the workload, then every
// grid point as an ephemeral variant, folded into the ranked frontier. The
// variant passes run block-major: the blocks stream through the engine's
// batch kernel (Engine.AnalyzeEach) in groups, each block analyzed for
// every design point back to back, so the kernel decodes, renders and
// bounds it once for all the points that leave those inputs alone. Each
// analysis is read where the kernel yields it, into its prediction and
// bottleneck mask, so the variant analyses allocate nothing. Each
// variant's fold reads its own results in block order, and ranking breaks
// ties by name — the Result is identical at any worker count.
//
// ctx cancels the sweep between analyses; a cancelled run returns ctx's
// error. Individually invalid design points do not fail the run: they are
// reported in Result.Failed.
func Run(ctx context.Context, eng *facile.Engine, grid *Grid, wl Workload, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if eng == nil {
		return nil, fmt.Errorf("sweep: nil engine")
	}
	if len(wl.Blocks) == 0 {
		return nil, fmt.Errorf("sweep: empty workload")
	}
	points, err := grid.Enumerate()
	if err != nil {
		return nil, err
	}

	comps := facile.ComponentNames()

	// Base pass: the registered base arch through the normal cached path.
	nb := len(wl.Blocks)
	reqs := make([]facile.Request, nb)
	for i, code := range wl.Blocks {
		reqs[i] = facile.Request{Code: code, Arch: grid.Base, Mode: wl.Mode}
	}
	baseTP := make([]float64, nb)
	baseBn := make([]int, len(comps))
	baseLogSum := 0.0
	for i, r := range eng.AnalyzeBatchN(ctx, reqs, opts.Workers) {
		if r.Err != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("sweep: base %q, block %d: %w", grid.Base, i, r.Err)
		}
		tp := r.Analysis.Prediction.CyclesPerIteration
		if tp <= 0 {
			return nil, fmt.Errorf("sweep: base %q, block %d: non-positive prediction %g", grid.Base, i, tp)
		}
		baseTP[i] = tp
		baseLogSum += math.Log(tp)
		countBottlenecks(baseBn, bottleneckMask(r.Analysis, comps))
	}

	res := &Result{
		Base:              grid.Base,
		Mode:              wl.Mode,
		Blocks:            nb,
		Points:            len(points),
		BaseGeomeanCycles: round4(math.Exp(baseLogSum / float64(nb))),
		BaseRates:         make([]ComponentRate, len(comps)),
	}
	for i, c := range comps {
		res.BaseRates[i] = ComponentRate{Component: c, Pct: pct(baseBn[i], nb)}
	}

	// Derive every point; one that fails is reported and not analyzed.
	reg := eng.Registry()
	folds := make([]variantFold, len(points))
	for pi, pt := range points {
		f := &folds[pi]
		f.pt = pt
		if f.v, err = reg.DeriveVariant(pt.Name, grid.Base, pt.Overlay); err != nil {
			f.err = err.Error()
			continue
		}
		f.bn = make([]int, len(comps))
	}

	// Variant passes, block-major. Each pair's analysis is folded into a
	// compact result as it is yielded; the results are then reduced in
	// block order, so the Result does not depend on the worker count. A
	// point that fails on a block drops out of the groups after it; within
	// its group its later results are skipped, so each failure names the
	// first failing block.
	var (
		live  []*variantFold
		pairs []pairResult
	)
	for lo := 0; lo < nb; {
		live = live[:0]
		for pi := range folds {
			if folds[pi].err == "" {
				live = append(live, &folds[pi])
			}
		}
		if len(live) == 0 {
			break
		}
		hi := min(lo+max(groupPairs/len(live), 1), nb)
		reqs = reqs[:0]
		for i := lo; i < hi; i++ {
			for _, f := range live {
				reqs = append(reqs, facile.Request{Code: wl.Blocks[i], Mode: wl.Mode, Variant: f.v})
			}
		}
		pairs = slices.Grow(pairs[:0], len(reqs))[:len(reqs)]
		eng.AnalyzeEach(ctx, reqs, opts.Workers, func(k int, a *facile.Analysis, err error) {
			if err != nil {
				pairs[k] = pairResult{err: err}
				return
			}
			pairs[k] = pairResult{tp: a.Prediction.CyclesPerIteration, bn: bottleneckMask(a, comps)}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := 0
		for i := lo; i < hi; i++ {
			for _, f := range live {
				r := &pairs[k]
				k++
				switch {
				case f.err != "":
				case r.err != nil:
					f.err = r.err.Error()
				case r.tp <= 0:
					f.err = fmt.Sprintf("block %d: non-positive prediction %g", i, r.tp)
				default:
					f.logSum += math.Log(baseTP[i] / r.tp)
					countBottlenecks(f.bn, r.bn)
				}
			}
		}
		lo = hi
	}

	for pi := range folds {
		f := &folds[pi]
		if f.err != "" {
			res.Failed = append(res.Failed, FailedVariant{Name: f.pt.Name, Overlay: f.pt.Overlay, Error: f.err})
			continue
		}
		row := VariantResult{
			Name:           f.pt.Name,
			Overlay:        f.pt.Overlay,
			GeomeanSpeedup: round4(math.Exp(f.logSum / float64(nb))),
			Shifts:         make([]ComponentShift, len(comps)),
		}
		for ci, c := range comps {
			bp, vp := pct(baseBn[ci], nb), pct(f.bn[ci], nb)
			row.Shifts[ci] = ComponentShift{
				Component: c, BasePct: bp, VariantPct: vp,
				DeltaPP: round2(vp - bp),
			}
		}
		res.Variants = append(res.Variants, row)
	}
	sort.SliceStable(res.Variants, func(i, j int) bool {
		a, b := &res.Variants[i], &res.Variants[j]
		if a.GeomeanSpeedup != b.GeomeanSpeedup {
			return a.GeomeanSpeedup > b.GeomeanSpeedup
		}
		return a.Name < b.Name
	})
	for i := range res.Variants {
		res.Variants[i].Rank = i + 1
	}
	sort.SliceStable(res.Failed, func(i, j int) bool { return res.Failed[i].Name < res.Failed[j].Name })
	return res, nil
}

// variantFold is one design point's running fold over the workload: its
// log-speedup sum and bottleneck counts so far, or why it failed.
type variantFold struct {
	pt     Point
	v      *facile.Variant
	err    string
	logSum float64
	bn     []int
}

// pairResult is what the fold keeps of one (block, design point)
// analysis: its prediction and bottleneck mask, or its error.
type pairResult struct {
	tp  float64
	bn  uint32
	err error
}

// countBottlenecks increments counts[i] for every component i in the
// bottleneck mask m.
func countBottlenecks(counts []int, m uint32) {
	for i := range counts {
		if m&(1<<i) != 0 {
			counts[i]++
		}
	}
}

// bottleneckMask returns the components the analysis flags as bottlenecks,
// bit i standing for comps[i]. Both a.Bounds and comps are in pipeline
// order, so one forward scan of comps finds every bound's component.
func bottleneckMask(a *facile.Analysis, comps []string) uint32 {
	var m uint32
	ci := 0
	for _, b := range a.Bounds {
		for comps[ci] != b.Component {
			ci++
		}
		if b.Bottleneck {
			m |= 1 << ci
		}
	}
	return m
}

func pct(n, total int) float64 {
	return round2(100 * float64(n) / float64(total))
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
