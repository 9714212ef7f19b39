package sweep

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
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

// Run executes a sweep. It derives the grid's points in typed form (see
// design): each axis value is decoded once, and a point is the base with
// one setting per axis written onto it, checked by Config.Validate. It
// then evaluates them factored: a component bound reads the block and a
// few configuration fields (core.Reads), so per block it builds the block
// once for each distinct tuple of the fields a build reads (bb.Reads), and
// computes each bound once for each distinct tuple of the fields that
// bound reads, among the points that derive. A pair's prediction and
// bottlenecks are eq. 1/3's combination (Bounds.Combine) of the bounds it
// looks up, exactly what an analysis of the pair computes.
//
// Each block is one item on the engine's batch workers, which makes one
// pass over it: the block's base analysis, through the engine's cached
// path, whose bounds stand in wherever a point agrees with the base on
// what a bound reads; the block's tables, whose first build keeps the
// decode a base miss just made; and every point's pair. A serial
// reduction then folds each point's pairs in block order, and ranking
// breaks ties by name — the Result is identical at any worker count.
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
	pl, err := evaluate(ctx, eng, grid, wl, opts.Workers)
	if err != nil {
		return nil, err
	}

	comps := facile.ComponentNames()
	nb := len(wl.Blocks)
	res := &Result{
		Base:              grid.Base,
		Mode:              wl.Mode,
		Blocks:            nb,
		Points:            grid.Points(),
		BaseGeomeanCycles: round4(math.Exp(pl.baseLogSum / float64(nb))),
		BaseRates:         make([]ComponentRate, len(comps)),
	}
	basePct := make([]float64, len(comps))
	for i, c := range comps {
		basePct[i] = pct(pl.baseBn[i], nb)
		res.BaseRates[i] = ComponentRate{Component: c, Pct: basePct[i]}
	}

	// Rank the evaluated points by index, then lay their rows out in rank
	// order: geomean speedup descending, ties by name ascending, and equal
	// names (which a valid grid never has) in point order.
	var pairs uint64
	ranked := make([]int32, 0, len(pl.live))
	var failed []int32
	for p := range pl.pts {
		f := &pl.pts[p]
		pairs += uint64(f.pairs)
		if f.err != nil {
			failed = append(failed, int32(p))
			continue
		}
		f.speedup = round4(math.Exp(f.logSum / float64(nb)))
		ranked = append(ranked, int32(p))
	}
	kernel.Of(eng).CountUncached(pairs)
	slices.SortStableFunc(ranked, func(a, b int32) int {
		fa, fb := &pl.pts[a], &pl.pts[b]
		if fa.speedup != fb.speedup {
			return cmp.Compare(fb.speedup, fa.speedup)
		}
		return strings.Compare(fa.name, fb.name)
	})
	if len(pl.live) > 0 {
		res.Variants = make([]VariantResult, len(ranked))
	}
	shifts := make([]ComponentShift, len(ranked)*len(comps))
	for r, p := range ranked {
		f := &pl.pts[p]
		row := &res.Variants[r]
		*row = VariantResult{
			Rank:           r + 1,
			Name:           f.name,
			Overlay:        pl.d.overlay(int(p)),
			GeomeanSpeedup: f.speedup,
			Shifts:         shifts[:len(comps):len(comps)],
		}
		shifts = shifts[len(comps):]
		for ci, c := range comps {
			vp := pct(f.bn[ci], nb)
			row.Shifts[ci] = ComponentShift{
				Component: c, BasePct: basePct[ci], VariantPct: vp,
				DeltaPP: round2(vp - basePct[ci]),
			}
		}
	}
	slices.SortStableFunc(failed, func(a, b int32) int { return strings.Compare(pl.pts[a].name, pl.pts[b].name) })
	for _, p := range failed {
		f := &pl.pts[p]
		res.Failed = append(res.Failed, FailedVariant{Name: f.name, Overlay: pl.d.overlay(int(p)), Error: f.err.Error()})
	}
	return res, nil
}

// evaluate derives the grid's points and evaluates them over the workload
// in one pass per group of blocks: one item per block (see plan.item),
// then the group's serial reduction, in block order.
func evaluate(ctx context.Context, eng *facile.Engine, grid *Grid, wl Workload, workers int) (*plan, error) {
	k := kernel.Of(eng)
	base, err := k.Resolve(grid.Base)
	if err != nil {
		// Every block's base analysis fails as the first one's does.
		if err := baseErrors(ctx, k, grid.Base, wl, 0, 1, workers); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sweep: base %q: %w", grid.Base, err)
	}
	mode := core.TPU
	if wl.Mode == facile.Loop {
		mode = core.TPL
	}
	pl := newPlan(newDesign(grid, base), wl, mode)
	nb := len(wl.Blocks)
	for lo := 0; lo < nb; lo += pl.group {
		hi := min(lo+pl.group, nb)
		k.Each(hi-lo, workers, func(sc *kernel.Scratch, t, left int) {
			if ctx.Err() == nil {
				pl.item(ctx, k, sc, lo+t, t, left)
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := pl.reduce(lo, hi); err != nil {
			// Resolve the later blocks' base analyses too, so the
			// engine's cache and Stats are what the base analyses of
			// the whole workload leave, as when the sweep succeeds.
			baseErrors(ctx, k, grid.Base, wl, hi, nb, workers)
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
	}
	return pl, nil
}

// baseOf sets out to block code's base analysis, resolved through k's
// cached path on sc, whose chunk has left items to run, and returns the
// error that fails the sweep, if any.
func baseOf(ctx context.Context, k kernel.Engine, sc *kernel.Scratch, left int, arch string, mode facile.Mode, code []byte, out *kernel.Base) error {
	if err := k.Analyze(ctx, sc, left, arch, int(mode), code, out); err != nil {
		return err
	}
	if out.TP <= 0 {
		return fmt.Errorf("non-positive prediction %g", out.TP)
	}
	return nil
}

// baseErrors resolves the base analyses of the workload's blocks [lo, hi)
// and returns the first error among them, in block order, as the sweep
// reports it: ctx's once ctx is done.
func baseErrors(ctx context.Context, k kernel.Engine, arch string, wl Workload, lo, hi, workers int) error {
	errs := make([]error, hi-lo)
	k.Each(hi-lo, workers, func(sc *kernel.Scratch, t, left int) {
		if ctx.Err() == nil {
			var b kernel.Base
			errs[t] = baseOf(ctx, k, sc, left, arch, wl.Mode, wl.Blocks[lo+t], &b)
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for t, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: base %q, block %d: %w", arch, lo+t, err)
		}
	}
	return nil
}

// Kinds of plan entries: one per component bound, eq. 3's selection
// context (whether the LSD may serve the loop), and the block build.
const (
	selKind   = int(core.NumComponents)
	buildKind = selKind + 1
	numKinds  = buildKind + 1
)

// ownReads holds the configuration fields, by spec key, each kind's
// entries are keyed on beyond those of their build entry: all of a
// build's; a component's or the selection's own. kindReads holds all of
// them, the build's included.
var ownReads = func() (own [numKinds][]string) {
	copy(own[:], core.Reads[:])
	own[selKind], own[buildKind] = core.SelectionReads, bb.Reads
	return own
}()

var kindReads = func() (reads [numKinds][]string) {
	for j, own := range ownReads {
		reads[j] = own
		if j != buildKind {
			reads[j] = append(slices.Clip(bb.Reads), own...)
		}
	}
	return reads
}()

// tableBudget bounds the values a plan holds per group of blocks: each
// block's bound values and its live points' pair rows.
var tableBudget = 1 << 16

// plan is a factored evaluation of a design over a workload. An entry of a
// kind is one distinct tuple, among the points that derive, of the fields
// the kind reads: the build's entries are the distinct descriptor tuples,
// and each other entry lies within one of them. Every entry is computed
// with the configuration of the first point that has it. Per block of a
// group, a block table holds each entry's result, and a pair row each live
// point's outcome, which the group's reduction folds.
type plan struct {
	d      *design
	blocks [][]byte
	wlMode facile.Mode
	mode   core.Mode
	pts    []pointFold
	// live lists the points that derive; pair rows follow its order.
	live  []int32
	kinds [numKinds]kindPlan
	// reps holds the configurations the entries are computed with.
	reps []uarch.Config
	// byBuild lists each build entry's entries of the other kinds.
	byBuild [][]entryRef

	// dup holds, per selection case (see pairCase), for each live point
	// the first live point that agrees with it on every field its pairs
	// read in that case, so that their pairs are equal.
	dup [4][]int32

	// The rows of a group of blocks, group rows each: the base analyses
	// and their errors, the component bounds (kinds' entries back to
	// back, from off), the selection, per build entry the JCC-erratum
	// flag and whether the build failed, and per live point its pair's
	// log-speedup over the base (NaN for a pair that fails) and its
	// bottlenecks.
	group        int
	bases        []kernel.Base
	baseErrs     []error
	nv, ns, nc   int
	off          [selKind]int
	vals         []float64
	elig         []bool
	jcc, failing []bool
	logs         []float64
	bns          []core.ComponentSet

	// The base's log-prediction sum and bottleneck counts over the blocks
	// reduced so far.
	baseLogSum float64
	baseBn     [core.NumComponents]int
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
// it failed; and, once folded, its geomean speedup.
type pointFold struct {
	name    string
	err     error
	ids     [numKinds]int32
	logSum  float64
	bn      [core.NumComponents]int
	pairs   int
	speedup float64
}

// newPlan derives every point of d and lays out their entries: serially,
// so each entry's representative is its first point.
func newPlan(d *design, wl Workload, mode core.Mode) *plan {
	pl := &plan{d: d, blocks: wl.Blocks, wlMode: wl.Mode, mode: mode, pts: make([]pointFold, d.points)}
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
		pl.live = append(pl.live, int32(p))
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
				// An entry lies within its build entry, whose fields it
				// reads too.
				fromBase := j == buildKind || pl.kinds[buildKind].fromBase[pt.ids[buildKind]]
				kp.fromBase = append(kp.fromBase, fromBase && uarch.SameFields(&cfg, d.cfg, ownReads[j]))
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
	nl := len(pl.live)
	for c := range pl.dup {
		pl.dup[c] = pl.dups(core.Computed(mode, c&1 != 0, c&2 != 0))
	}
	pl.group = min(max(tableBudget/max(pl.nv+nl, 1), 1), len(wl.Blocks))
	pl.bases = make([]kernel.Base, pl.group)
	pl.baseErrs = make([]error, pl.group)
	pl.vals = make([]float64, pl.group*pl.nv)
	pl.elig = make([]bool, pl.group*pl.ns)
	pl.jcc = make([]bool, pl.group*pl.nc)
	pl.failing = make([]bool, pl.group*pl.nc)
	pl.logs = make([]float64, pl.group*nl)
	pl.bns = make([]core.ComponentSet, pl.group*nl)
	return pl
}

// pairCase numbers eq. 3's selection context, which decides the components
// a pair combines: whether the block triggers the JCC erratum, and whether
// the LSD may serve it.
func pairCase(jcc, elig bool) int {
	c := 0
	if jcc {
		c |= 1
	}
	if elig {
		c |= 2
	}
	return c
}

// dups returns the dup list of a selection case that combines the
// components present: live points are keyed by their values on the axes
// that the build, the selection and those components read, and each maps
// to the first with its key.
func (pl *plan) dups(present core.ComponentSet) []int32 {
	d := pl.d
	read := make([]bool, len(d.axes))
	for j := range pl.kinds {
		if j >= selKind || present.Has(core.Component(j)) {
			for _, k := range pl.kinds[j].axes {
				read[k] = true
			}
		}
	}
	size := 1
	for k, r := range read {
		if r {
			size *= len(d.axes[k].names)
		}
	}
	first := make([]int32, size) // per key, the first live point's index + 1
	dup := make([]int32, len(pl.live))
	for r, p := range pl.live {
		key := 0
		for k := range d.axes {
			if read[k] {
				key = key*len(d.axes[k].names) + d.value(int(p), k)
			}
		}
		if first[key] == 0 {
			first[key] = int32(r) + 1
		}
		dup[r] = first[key] - 1
	}
	return dup
}

// item is block i's one pass, in row t of its group, on a worker's
// scratch whose chunk has left items to run: the block's base analysis,
// then, unless that fails, its tables and every live point's pair.
func (pl *plan) item(ctx context.Context, k kernel.Engine, sc *kernel.Scratch, i, t, left int) {
	pl.baseErrs[t] = baseOf(ctx, k, sc, left, pl.d.base, pl.wlMode, pl.blocks[i], &pl.bases[t])
	if pl.baseErrs[t] != nil {
		return
	}
	pl.tabulate(sc, i, t)
	pl.fillRows(t)
}

// tabulate fills row t of the block tables for block i: one build per
// build entry, then each of its entries, the components eq. 1/3 computes
// for the block among them: from the base analysis where the base agrees
// with the entry, else with the entry's representative configuration.
func (pl *plan) tabulate(sc *kernel.Scratch, i, t int) {
	block, base := &sc.Block, &pl.bases[t].Bounds
	vals := pl.vals[t*pl.nv : (t+1)*pl.nv]
	elig := pl.elig[t*pl.ns : (t+1)*pl.ns]
	jcc := pl.jcc[t*pl.nc : (t+1)*pl.nc]
	failing := pl.failing[t*pl.nc : (t+1)*pl.nc]
	for b := range pl.nc {
		failing[b] = bb.BuildInto(block, &pl.reps[pl.kinds[buildKind].rep[b]], pl.blocks[i]) != nil
		if failing[b] {
			jcc[b] = false // every pair of the entry fails; the flag picks their dup list
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
			case kp.fromBase[e.id] && base.Has(c):
				vals[pl.off[c]+int(e.id)] = base.V[c]
			default:
				block.Cfg = &pl.reps[kp.rep[e.id]]
				vals[pl.off[c]+int(e.id)] = sc.Ana.Bound(block, pl.mode, c)
			}
		}
	}
}

// logMemoBits sizes the direct-mapped memo of a block's log-speedups, by
// prediction: a block's pairs take few distinct predictions.
const logMemoBits = 6

type logMemo [1 << logMemoBits]struct{ tp, log float64 }

// fillRows writes row t's pairs, one per live point: for a point whose
// pair another's equals, a copy, else the log-speedup over the base of the
// point's prediction on the group's block t, taken once per distinct
// prediction of the block (a memo slot holds one; a positive prediction
// is never the empty slot's 0), and its bottlenecks.
func (pl *plan) fillRows(t int) {
	var memo logMemo
	base := pl.bases[t].TP
	nl := len(pl.live)
	logs, bns := pl.logs[t*nl:(t+1)*nl], pl.bns[t*nl:(t+1)*nl]
	for r, p := range pl.live {
		f := &pl.pts[p]
		b := t*pl.nc + int(f.ids[buildKind])
		if d := pl.dup[pairCase(pl.jcc[b], pl.elig[t*pl.ns+int(f.ids[selKind])])][r]; int(d) < r {
			logs[r], bns[r] = logs[d], bns[d]
			continue
		}
		tp, bn, built := pl.pair(int(p), t)
		if !built || tp <= 0 {
			logs[r] = math.NaN()
			continue
		}
		m := &memo[math.Float64bits(tp)*0x9e3779b97f4a7c15>>(64-logMemoBits)]
		if m.tp != tp {
			m.tp, m.log = tp, math.Log(base/tp)
		}
		logs[r], bns[r] = m.log, bn
	}
}

// pair evaluates point p on the block whose tables are row t: its
// prediction, rounded as an Analysis rounds it, and its bottlenecks, or
// built false when the build of p's descriptor tuple failed on the block.
func (pl *plan) pair(p, t int) (float64, core.ComponentSet, bool) {
	f := &pl.pts[p]
	b := t*pl.nc + int(f.ids[buildKind])
	if pl.failing[b] {
		return 0, 0, false
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
	return round2(comb.TP), bounds.Bottlenecks(comb), true
}

// reduce folds the rows of the group of blocks [lo, hi) into the base's
// sums and each point's fold, block by block in order, and returns the
// first of the group's base errors. A point that fails on a block is not
// folded on later ones.
func (pl *plan) reduce(lo, hi int) error {
	nl := len(pl.live)
	for t := range hi - lo {
		i := lo + t
		if err := pl.baseErrs[t]; err != nil {
			return fmt.Errorf("sweep: base %q, block %d: %w", pl.d.base, i, err)
		}
		b := &pl.bases[t]
		pl.baseLogSum += math.Log(b.TP)
		countBottlenecks(&pl.baseBn, b.Bottlenecks)
		logs, bns := pl.logs[t*nl:(t+1)*nl], pl.bns[t*nl:(t+1)*nl]
		for r, p := range pl.live {
			f := &pl.pts[p]
			if f.err != nil {
				continue
			}
			f.pairs++
			if math.IsNaN(logs[r]) {
				f.err = pl.pairError(int(p), i, t)
				continue
			}
			f.logSum += logs[r]
			countBottlenecks(&f.bn, bns[r])
		}
	}
	return nil
}

// pairError returns the error point p reports on block i, whose tables
// are row t: the build's error, naming p, or the non-positive prediction.
func (pl *plan) pairError(p, i, t int) error {
	if tp, _, built := pl.pair(p, t); built {
		return fmt.Errorf("block %d: non-positive prediction %g", i, tp)
	}
	cfg := new(uarch.Config)
	pl.d.derive(cfg, p, pl.pts[p].name, make([]*uarch.Setting, 0, len(pl.d.axes)))
	_, err := bb.Build(cfg, pl.blocks[i])
	return err
}

// countBottlenecks increments counts[c] for every component c in m.
func countBottlenecks(counts *[core.NumComponents]int, m core.ComponentSet) {
	for ; m != 0; m &= m - 1 {
		counts[bits.TrailingZeros8(uint8(m))]++
	}
}

func pct(n, total int) float64 {
	return round2(100 * float64(n) / float64(total))
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
