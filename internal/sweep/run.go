package sweep

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"facile"
	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/kernel"
	"facile/internal/uarch"
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

// Run executes a sweep: one cached base pass over the workload, then every
// grid point, folded into the ranked frontier. It derives the points in
// typed form (see design): each axis value is decoded once, and a point is
// the base with one setting per axis written onto it, checked by
// Config.Validate. It then evaluates them factored: a component bound reads
// the block and a few configuration fields (core.Reads), so per block it
// builds the block once for each distinct tuple of the fields a build
// reads (bb.Reads), and computes each bound once for each distinct tuple of
// the fields that bound reads, among the points that derive. A pair's
// prediction and bottlenecks are eq. 1/3's combination (Bounds.Combine) of
// the bounds it looks up, exactly what an analysis of the pair computes.
// Both phases, the per-block tables and the per-point folds, run on the
// engine's batch workers. Each point folds its pairs in block order, and
// ranking breaks ties by name — the Result is identical at any worker
// count.
//
// ctx cancels the sweep between items; a cancelled run returns ctx's
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
	if err := grid.Validate(); err != nil {
		return nil, err
	}

	bases, err := basePass(ctx, eng, grid.Base, wl, opts.Workers)
	if err != nil {
		return nil, err
	}
	comps := facile.ComponentNames()
	nb := len(wl.Blocks)
	var baseBn [core.NumComponents]int
	baseLogSum := 0.0
	for i := range bases {
		baseLogSum += math.Log(bases[i].tp)
		countBottlenecks(&baseBn, bases[i].bn)
	}
	res := &Result{
		Base:              grid.Base,
		Mode:              wl.Mode,
		Blocks:            nb,
		Points:            grid.Points(),
		BaseGeomeanCycles: round4(math.Exp(baseLogSum / float64(nb))),
		BaseRates:         make([]ComponentRate, len(comps)),
	}
	for i, c := range comps {
		res.BaseRates[i] = ComponentRate{Component: c, Pct: pct(baseBn[i], nb)}
	}

	pl, err := evaluate(ctx, eng, grid, wl, bases, opts.Workers)
	if err != nil {
		return nil, err
	}
	var pairs uint64
	if pl.live > 0 {
		res.Variants = make([]VariantResult, 0, pl.live)
	}
	shifts := make([]ComponentShift, pl.live*len(comps))
	for p := range pl.pts {
		f := &pl.pts[p]
		pairs += uint64(f.pairs)
		if f.err != nil {
			res.Failed = append(res.Failed, FailedVariant{Name: f.name, Overlay: pl.d.overlay(p), Error: f.err.Error()})
			continue
		}
		row := VariantResult{
			Name:           f.name,
			Overlay:        pl.d.overlay(p),
			GeomeanSpeedup: round4(math.Exp(f.logSum / float64(nb))),
			Shifts:         shifts[:len(comps):len(comps)],
		}
		shifts = shifts[len(comps):]
		for ci, c := range comps {
			bp, vp := pct(baseBn[ci], nb), pct(f.bn[ci], nb)
			row.Shifts[ci] = ComponentShift{
				Component: c, BasePct: bp, VariantPct: vp,
				DeltaPP: round2(vp - bp),
			}
		}
		res.Variants = append(res.Variants, row)
	}
	kernel.Of(eng).CountUncached(pairs)
	slices.SortStableFunc(res.Variants, func(a, b VariantResult) int {
		if a.GeomeanSpeedup != b.GeomeanSpeedup {
			return cmp.Compare(b.GeomeanSpeedup, a.GeomeanSpeedup)
		}
		return strings.Compare(a.Name, b.Name)
	})
	for i := range res.Variants {
		res.Variants[i].Rank = i + 1
	}
	slices.SortStableFunc(res.Failed, func(a, b FailedVariant) int { return strings.Compare(a.Name, b.Name) })
	return res, nil
}

// basePass analyzes the workload on the registered base arch through the
// engine's cached path.
func basePass(ctx context.Context, eng *facile.Engine, base string, wl Workload, workers int) ([]baseBlock, error) {
	comps := facile.ComponentNames()
	reqs := make([]facile.Request, len(wl.Blocks))
	for i, code := range wl.Blocks {
		reqs[i] = facile.Request{Code: code, Arch: base, Mode: wl.Mode}
	}
	bases := make([]baseBlock, len(reqs))
	for i, r := range eng.AnalyzeBatchN(ctx, reqs, workers) {
		if r.Err != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("sweep: base %q, block %d: %w", base, i, r.Err)
		}
		if tp := r.Analysis.Prediction.CyclesPerIteration; tp <= 0 {
			return nil, fmt.Errorf("sweep: base %q, block %d: non-positive prediction %g", base, i, tp)
		}
		bases[i].scan(r.Analysis, comps)
	}
	return bases, nil
}

// evaluate derives the grid's points and folds each over the workload,
// factored: the blocks in groups, a group's block tables, then every
// point's fold over the group.
func evaluate(ctx context.Context, eng *facile.Engine, grid *Grid, wl Workload, bases []baseBlock, workers int) (*plan, error) {
	k := kernel.Of(eng)
	base, err := k.Resolve(grid.Base)
	if err != nil {
		return nil, fmt.Errorf("sweep: base %q: %w", grid.Base, err)
	}
	mode := core.TPU
	if wl.Mode == facile.Loop {
		mode = core.TPL
	}
	pl := newPlan(newDesign(grid, base), wl.Blocks, mode, bases)
	for lo := 0; lo < len(wl.Blocks) && pl.live > 0; lo += pl.group {
		hi := min(lo+pl.group, len(wl.Blocks))
		k.Each(hi-lo, workers, func(sc *kernel.Scratch, t int) {
			if ctx.Err() == nil {
				pl.tabulate(sc, lo+t, t)
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k.Each(len(pl.pts), workers, func(sc *kernel.Scratch, p int) {
			if ctx.Err() == nil {
				pl.fold(sc, p, lo, hi)
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// Kinds of plan entries: one per component bound, eq. 3's selection
// context (whether the LSD may serve the loop), and the block build.
const (
	selKind   = int(core.NumComponents)
	buildKind = selKind + 1
	numKinds  = buildKind + 1
)

// kindReads holds the configuration fields, by spec key, each kind's
// entries are keyed on: a build's, and a component's or the selection's
// besides.
var kindReads = func() (reads [numKinds][]string) {
	for j := range reads {
		reads[j] = slices.Clip(bb.Reads)
		switch {
		case j == selKind:
			reads[j] = append(reads[j], core.SelectionReads...)
		case j < selKind:
			reads[j] = append(reads[j], core.Reads[j]...)
		}
	}
	return reads
}()

// tableBudget bounds the bound values a plan tabulates at once, over the
// blocks of a group.
const tableBudget = 1 << 16

// plan is a factored evaluation of a design over a workload. An entry of a
// kind is one distinct tuple, among the points that derive, of the fields
// the kind reads: the build's entries are the distinct descriptor tuples,
// and each other entry lies within one of them. Every entry is computed
// with the configuration of the first point that has it. Per block of a
// group, a block table holds each entry's result; a point's fold looks its
// entries up.
type plan struct {
	d      *design
	blocks [][]byte
	mode   core.Mode
	bases  []baseBlock
	pts    []pointFold
	live   int
	kinds  [numKinds]kindPlan
	// reps holds the configurations the entries are computed with.
	reps []uarch.Config
	// byBuild lists each build entry's entries of the other kinds.
	byBuild [][]entryRef

	// The block tables of a group of blocks, group rows each: the
	// component bounds (kinds' entries back to back, from off), the
	// selection, and per build entry the JCC-erratum flag and whether the
	// build failed.
	group        int
	nv, ns, nc   int
	off          [selKind]int
	vals         []float64
	elig         []bool
	jcc, failing []bool
}

// kindPlan is one kind's entries: which axes key them, and per entry its
// representative configuration.
type kindPlan struct {
	axes  []int
	dense []int32 // per key (mixed radix over axes), the entry's id + 1; 0 for none yet
	rep   []int32 // per entry, its index in plan.reps
	// fromBase tells, per entry, whether the base configuration agrees
	// with it on the fields it reads, so that the base analysis's bound
	// stands in for it.
	fromBase []bool
}

type entryRef struct {
	kind int8
	id   int32
}

// pointFold is one design point's fold over the workload: its name and
// entries, its log-speedup sum, bottleneck counts and pairs so far, or why
// it failed.
type pointFold struct {
	name   string
	err    error
	ids    [numKinds]int32
	logSum float64
	bn     [core.NumComponents]int
	pairs  int
}

// newPlan derives every point of d and lays out their entries: serially,
// so each entry's representative is its first point.
func newPlan(d *design, blocks [][]byte, mode core.Mode, bases []baseBlock) *plan {
	pl := &plan{d: d, blocks: blocks, mode: mode, bases: bases, pts: make([]pointFold, d.points)}
	for j := range pl.kinds {
		kp := &pl.kinds[j]
		reads := kindReads[j]
		size := 1
		for k := range d.axes {
			if key := d.axes[k].settings[0].Key(); key != "" && slices.Contains(reads, key) {
				kp.axes = append(kp.axes, k)
				size *= len(d.axes[k].names)
			}
		}
		kp.dense = make([]int32, size)
	}
	var cfg uarch.Config
	settings := make([]*uarch.Setting, 0, len(d.axes))
	for p := range pl.pts {
		pt := &pl.pts[p]
		pt.name = d.name(p)
		if pt.err = d.derive(&cfg, p, pt.name, settings); pt.err != nil {
			continue
		}
		pl.live++
		rep := int32(-1)
		for j := buildKind; j >= 0; j-- {
			kp := &pl.kinds[j]
			key := 0
			for _, k := range kp.axes {
				key = key*len(d.axes[k].names) + d.value(p, k)
			}
			if kp.dense[key] == 0 {
				if rep < 0 {
					rep = int32(len(pl.reps))
					pl.reps = append(pl.reps, cfg)
				}
				kp.rep = append(kp.rep, rep)
				kp.fromBase = append(kp.fromBase, uarch.SameFields(&cfg, d.cfg, kindReads[j]))
				kp.dense[key] = int32(len(kp.rep))
				if j == buildKind {
					pl.byBuild = append(pl.byBuild, nil)
				} else {
					b := pt.ids[buildKind]
					pl.byBuild[b] = append(pl.byBuild[b], entryRef{kind: int8(j), id: kp.dense[key] - 1})
				}
			}
			pt.ids[j] = kp.dense[key] - 1
		}
	}

	pl.nc, pl.ns = len(pl.kinds[buildKind].rep), len(pl.kinds[selKind].rep)
	for j := range selKind {
		pl.off[j] = pl.nv
		pl.nv += len(pl.kinds[j].rep)
	}
	pl.group = min(max(tableBudget/max(pl.nv, 1), 1), len(blocks))
	pl.vals = make([]float64, pl.group*pl.nv)
	pl.elig = make([]bool, pl.group*pl.ns)
	pl.jcc = make([]bool, pl.group*pl.nc)
	pl.failing = make([]bool, pl.group*pl.nc)
	return pl
}

// tabulate fills row t of the block tables for block i: one build per
// build entry, then each of its entries, the components eq. 1/3 computes
// for the block among them: from the base analysis where the base agrees
// with the entry, else with the entry's representative configuration.
func (pl *plan) tabulate(sc *kernel.Scratch, i, t int) {
	block, base := &sc.Block, &pl.bases[i]
	vals := pl.vals[t*pl.nv : (t+1)*pl.nv]
	elig := pl.elig[t*pl.ns : (t+1)*pl.ns]
	jcc := pl.jcc[t*pl.nc : (t+1)*pl.nc]
	failing := pl.failing[t*pl.nc : (t+1)*pl.nc]
	for b := range pl.nc {
		failing[b] = bb.BuildInto(block, &pl.reps[pl.kinds[buildKind].rep[b]], pl.blocks[i]) != nil
		if failing[b] {
			continue
		}
		jcc[b] = block.JCCErratumAffected()
		need := core.Computed(pl.mode, jcc[b], true)
		for _, e := range pl.byBuild[b] {
			kp := &pl.kinds[e.kind]
			c := core.Component(e.kind)
			switch {
			case int(e.kind) == selKind:
				block.Cfg = &pl.reps[kp.rep[e.id]]
				elig[e.id] = core.LSDEligible(block)
			case !need.Has(c):
			case kp.fromBase[e.id] && base.present.Has(c):
				vals[pl.off[c]+int(e.id)] = base.bounds[c]
			default:
				block.Cfg = &pl.reps[kp.rep[e.id]]
				vals[pl.off[c]+int(e.id)] = sc.Ana.Bound(block, pl.mode, c)
			}
		}
	}
}

// fold folds point p's pairs with the blocks [lo, hi), whose tables are
// rows 0 to hi-lo-1, in block order. A pair's bounds are its entries'; its
// prediction is their combination, rounded as an Analysis rounds it. A
// point that fails on a block is not evaluated on later ones.
func (pl *plan) fold(sc *kernel.Scratch, p, lo, hi int) {
	f := &pl.pts[p]
	if f.err != nil {
		return
	}
	for i := lo; i < hi; i++ {
		f.pairs++
		tp, bn, err := pl.pair(sc, p, i, i-lo)
		if err != nil {
			f.err = err
			return
		}
		f.logSum += math.Log(pl.bases[i].tp / tp)
		countBottlenecks(&f.bn, uint32(bn))
	}
}

// pair evaluates point p on block i, whose tables are row t: its
// prediction, rounded as an Analysis rounds it, and its bottlenecks, or
// the error the pair reports.
func (pl *plan) pair(sc *kernel.Scratch, p, i, t int) (float64, core.ComponentSet, error) {
	f := &pl.pts[p]
	b := t*pl.nc + int(f.ids[buildKind])
	if pl.failing[b] {
		return 0, 0, pl.buildError(sc, p, i)
	}
	jcc, elig := pl.jcc[b], pl.elig[t*pl.ns+int(f.ids[selKind])]
	bounds := core.Bounds{Present: core.Computed(pl.mode, jcc, elig), JCCErratum: jcc, LSDEligible: elig}
	vals := pl.vals[t*pl.nv : (t+1)*pl.nv]
	for c := core.Component(0); c < core.NumComponents; c++ {
		if bounds.Has(c) {
			bounds.V[c] = vals[pl.off[c]+int(f.ids[c])]
		}
	}
	comb := bounds.Combine(pl.mode, core.AllComponents)
	tp := round2(comb.TP)
	if tp <= 0 {
		return 0, 0, fmt.Errorf("block %d: non-positive prediction %g", i, tp)
	}
	return tp, bounds.Bottlenecks(comb), nil
}

// buildError returns the error building block i for point p reports,
// naming p: the build of p's descriptor tuple failed on the block.
func (pl *plan) buildError(sc *kernel.Scratch, p, i int) error {
	cfg := new(uarch.Config)
	pl.d.derive(cfg, p, pl.pts[p].name, make([]*uarch.Setting, 0, len(pl.d.axes)))
	return bb.BuildInto(&sc.Block, cfg, pl.blocks[i])
}

// countBottlenecks increments counts[i] for every component i in the
// bottleneck mask m.
func countBottlenecks(counts *[core.NumComponents]int, m uint32) {
	for i := range counts {
		if m&(1<<i) != 0 {
			counts[i]++
		}
	}
}

// baseBlock is what a sweep keeps of a block's base analysis: its
// prediction and bottlenecks, and its bounds, which stand in for the
// entries that read what the base reads.
type baseBlock struct {
	tp      float64
	bn      uint32 // bit i stands for the ith component
	bounds  [core.NumComponents]float64
	present core.ComponentSet
}

// scan sets b from the base analysis a. Both a.Bounds and comps are in
// pipeline order, so one forward scan of comps finds every bound's
// component.
func (b *baseBlock) scan(a *facile.Analysis, comps []string) {
	b.tp = a.Prediction.CyclesPerIteration
	ci := 0
	for _, cb := range a.Bounds {
		for comps[ci] != cb.Component {
			ci++
		}
		b.bounds[ci] = cb.Cycles
		b.present |= 1 << ci
		if cb.Bottleneck {
			b.bn |= 1 << ci
		}
	}
}

func pct(n, total int) float64 {
	return round2(100 * float64(n) / float64(total))
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
