package difffuzz

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"facile"
	"facile/internal/asm"
	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/mca"
	"facile/internal/metrics"
	"facile/internal/pipesim"
	"facile/internal/uarch"
)

// Default thresholds: a comparison diverges when the two predictions differ
// by more than DefaultAbsThreshold cycles AND by more than DefaultRelThreshold
// relative to the smaller prediction. Both models are approximations of the
// same hardware, so small disagreements are expected; the harness hunts for
// the systematic, structural ones.
const (
	DefaultRelThreshold = 0.30
	DefaultAbsThreshold = 1.0
	// DefaultMaxFindings bounds the number of divergent blocks that are
	// greedily minimized in one run (minimization is the expensive phase).
	// Divergences beyond the cap are still counted and clustered by raw
	// category; the report records how many minimizations were skipped.
	DefaultMaxFindings = 64
	// DefaultTargetsPerBlock is how many of the configured targets each
	// generated block is swept on (see Options.TargetsPerBlock).
	DefaultTargetsPerBlock = 6
)

// Target is one comparison configuration: a microarchitecture (builtin,
// runtime-registered, or variant overlay) and a throughput notion.
type Target struct {
	Arch string
	Mode facile.Mode
}

func (t Target) String() string { return t.Arch + "/" + modeWire(t.Mode) }

// modeWire renders a Mode in the corpus wire vocabulary ("loop"/"unroll").
func modeWire(m facile.Mode) string {
	if m == facile.Loop {
		return "loop"
	}
	return "unroll"
}

// Options configure a Fuzzer. The zero value fuzzes nothing useful; set at
// least N.
type Options struct {
	// Seed drives the deterministic block generator; the same (Seed, N,
	// Targets, thresholds) always produce the same report.
	Seed int64
	// N is the number of blocks to generate.
	N int
	// Targets lists the (arch, mode) pairs blocks are compared on.
	// Empty selects every registry arch × {Unroll, Loop}.
	Targets []Target
	// TargetsPerBlock bounds how many targets each individual block is
	// swept on: block i takes TargetsPerBlock consecutive targets starting
	// at a deterministic rotating offset, so the batch as a whole covers
	// every target uniformly while each block costs O(TargetsPerBlock)
	// simulations. 0 selects DefaultTargetsPerBlock; negative (or a value
	// >= len(Targets)) sweeps every block on every target.
	TargetsPerBlock int
	// RelThreshold and AbsThreshold configure the divergence judgment (see
	// Diverges). Zero values select the defaults.
	RelThreshold float64
	AbsThreshold float64
	// Workers bounds comparison parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// SkipMinimize disables greedy minimization (raw divergent blocks are
	// reported as-is).
	SkipMinimize bool
	// MaxFindings bounds how many divergent blocks are minimized; 0 selects
	// DefaultMaxFindings, negative means unlimited.
	MaxFindings int
	// MCAPath is the llvm-mca binary used as an optional third referee on
	// minimized findings; empty disables the referee.
	MCAPath string
	// Engine computes the Facile side; nil constructs a private
	// memoization-free engine over the default registry (fuzz streams do
	// not repeat, so caching only churns).
	Engine *facile.Engine
	// Registry resolves arch names to configs for the pipesim side; nil
	// selects uarch.Default(). It must agree with Engine's registry about
	// every target arch name.
	Registry *uarch.Registry
	// AgreeingSamples asks the run to additionally record up to this many
	// agreeing (block, target) comparisons as corpus sentinels (Divergent
	// false): the regression gate uses them to detect blocks that *start*
	// diverging.
	AgreeingSamples int
	// Command, when set, is recorded verbatim in the report header as the
	// exact command line that reproduces the run.
	Command string
}

// Fuzzer runs differential comparisons. Construct with New; a Fuzzer is safe
// for use by one Run at a time.
type Fuzzer struct {
	opt     Options
	eng     *facile.Engine
	reg     *uarch.Registry
	targets []Target
	cfgs    map[string]*uarch.Config // target arch name -> its configuration
	mca     *mca.Referee
}

// New validates opts, resolves the target list, and returns a ready Fuzzer.
func New(opt Options) (*Fuzzer, error) {
	if opt.N <= 0 {
		return nil, fmt.Errorf("difffuzz: N must be positive (got %d)", opt.N)
	}
	if opt.RelThreshold == 0 {
		opt.RelThreshold = DefaultRelThreshold
	}
	if opt.AbsThreshold == 0 {
		opt.AbsThreshold = DefaultAbsThreshold
	}
	if opt.MaxFindings == 0 {
		opt.MaxFindings = DefaultMaxFindings
	}
	if opt.TargetsPerBlock == 0 {
		opt.TargetsPerBlock = DefaultTargetsPerBlock
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	f := &Fuzzer{opt: opt, eng: opt.Engine, reg: opt.Registry}
	if f.reg == nil {
		f.reg = uarch.Default()
	}
	if f.eng == nil {
		// Fuzz streams are non-repeating: memoization would only churn the
		// LRU, so the private engine disables it.
		eng, err := facile.NewEngine(facile.EngineConfig{CacheSize: -1})
		if err != nil {
			return nil, err
		}
		f.eng = eng
	}
	f.targets = opt.Targets
	if len(f.targets) == 0 {
		for _, name := range f.reg.Names() {
			f.targets = append(f.targets,
				Target{Arch: name, Mode: facile.Unroll},
				Target{Arch: name, Mode: facile.Loop})
		}
	}
	f.cfgs = make(map[string]*uarch.Config, len(f.targets))
	for _, t := range f.targets {
		if _, ok := f.cfgs[t.Arch]; ok {
			continue
		}
		cfg, err := f.reg.ByName(t.Arch)
		if err != nil {
			return nil, fmt.Errorf("difffuzz: target arch: %w", err)
		}
		if !f.eng.HasArch(t.Arch) {
			return nil, fmt.Errorf("difffuzz: engine does not serve target arch %q", t.Arch)
		}
		f.cfgs[t.Arch] = cfg
	}
	if opt.MCAPath != "" {
		f.mca = mca.NewReferee(opt.MCAPath)
	}
	return f, nil
}

// Targets returns the resolved comparison targets in evaluation order.
func (f *Fuzzer) Targets() []Target {
	out := make([]Target, len(f.targets))
	copy(out, f.targets)
	return out
}

// comparison is the outcome of running both models on one (code, target).
type comparison struct {
	facile    float64
	pipesim   float64
	relDiff   float64
	divergent bool
}

// Diverges applies the divergence judgment: the relative difference of the
// two predictions (against the smaller one, floored to avoid blowups near
// zero) and whether it exceeds both thresholds. Exported so the corpus
// replay gate judges replays with exactly the harness's rule.
func Diverges(facileTP, pipesimTP, relThreshold, absThreshold float64) (relDiff float64, divergent bool) {
	d := math.Abs(facileTP - pipesimTP)
	base := math.Min(facileTP, pipesimTP)
	if base < 0.05 {
		base = 0.05
	}
	relDiff = d / base
	return relDiff, d > absThreshold && relDiff > relThreshold
}

// compare runs both models on code for one target. The facile side goes
// through the public Engine.Analyze entrypoint (the exact surface every
// client uses); the pipesim side builds the block with bb.Build and runs the
// stable pipesim.PredictBlock entrypoint. Every recorded value comes
// from this full-window comparison, so corpus entries replay identically
// through pipesim.Predict's defaults.
func (f *Fuzzer) compare(ctx context.Context, code []byte, t Target) (comparison, error) {
	return f.compareWindow(ctx, code, t, false)
}

// screen is the cheap first-pass comparison: same models, but the simulator
// runs a much smaller measurement window. Screening verdicts are only used
// to decide what gets the full-window treatment — a screen hit is always
// re-confirmed by compare before anything is counted or recorded.
func (f *Fuzzer) screen(ctx context.Context, code []byte, t Target) (comparison, error) {
	return f.compareWindow(ctx, code, t, true)
}

// screenBudget sizes the screening simulation window in instruction
// instances — a quarter of the simulator's default budget.
const screenBudget = 1500

func (f *Fuzzer) compareWindow(ctx context.Context, code []byte, t Target, quick bool) (comparison, error) {
	ana, err := f.eng.Analyze(ctx, facile.Request{Code: code, Arch: t.Arch, Mode: t.Mode})
	if err != nil {
		return comparison{}, fmt.Errorf("facile %s: %w", t, err)
	}
	block, err := bb.Build(f.cfgs[t.Arch], code)
	if err != nil {
		return comparison{}, fmt.Errorf("build %s: %w", t, err)
	}
	var sim float64
	if quick {
		n := len(block.Insts)
		if n < 1 {
			n = 1
		}
		iters := screenBudget / n
		if iters < 10 {
			iters = 10
		} else if iters > 60 {
			iters = 60
		}
		res := pipesim.Run(block, pipesim.Options{
			Loop:         t.Mode == facile.Loop,
			WarmupIters:  iters / 2,
			MeasureIters: iters - iters/2,
		})
		if math.IsInf(res.TP, 0) || math.IsNaN(res.TP) {
			return comparison{}, fmt.Errorf("pipesim %s: simulation did not reach steady state", t)
		}
		sim = res.TP
	} else {
		sim, err = pipesim.PredictBlock(block, t.Mode == facile.Loop)
		if err != nil {
			return comparison{}, fmt.Errorf("pipesim %s: %w", t, err)
		}
	}
	c := comparison{facile: ana.Prediction.CyclesPerIteration, pipesim: metrics.Round2(sim)}
	c.relDiff, c.divergent = Diverges(c.facile, c.pipesim, f.opt.RelThreshold, f.opt.AbsThreshold)
	return c, nil
}

// rawDivergence is one divergent (block, target) pair of the sweep phase.
type rawDivergence struct {
	target Target
	cmp    comparison
}

// blockResult is the sweep outcome for one generated block.
type blockResult struct {
	divs []rawDivergence
	errs []error
}

// Run executes one full fuzzing batch: generate, sweep every block across
// every target on a worker pool, minimize the divergent ones, cluster, and
// assemble the triage report. Harness failures (a model erroring on a
// generated block, a simulator deadlock) are collected into Report.Errors;
// Run itself only fails on invalid setup or context cancellation.
func (f *Fuzzer) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	blocks := bhive.GenerateBlocks(f.opt.Seed, f.opt.N)

	// Sweep phase: every block × every target, in parallel across blocks.
	results := make([]blockResult, len(blocks))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < f.opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(blocks) || ctx.Err() != nil {
					return
				}
				results[i] = f.sweepBlock(ctx, i, &blocks[i])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{
		Command:      f.opt.Command,
		Seed:         f.opt.Seed,
		N:            f.opt.N,
		RelThreshold: f.opt.RelThreshold,
		AbsThreshold: f.opt.AbsThreshold,
		Blocks:       len(blocks),
	}
	for _, t := range f.targets {
		rep.Targets = append(rep.Targets, t.String())
	}

	// Triage phase: minimize the worst target of each divergent block,
	// dedupe identical reproducers, referee with llvm-mca when configured.
	byKey := make(map[string]*Finding)
	minimized := 0
	for i := range results {
		res := &results[i]
		for _, err := range res.errs {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", blocks[i].ID, err))
		}
		rep.Comparisons += len(f.blockTargets(i)) - len(res.errs)
		if len(res.divs) == 0 {
			continue
		}
		rep.Divergent += len(res.divs)
		rep.DivergentBlocks++

		worst := res.divs[0]
		for _, d := range res.divs[1:] {
			if d.cmp.relDiff > worst.cmp.relDiff {
				worst = d
			}
		}
		fin, err := f.triage(ctx, &blocks[i], worst, &minimized)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: triage: %v", blocks[i].ID, err))
			continue
		}
		key := fin.Hex + "|" + fin.Arch + "|" + fin.Mode
		if prev, ok := byKey[key]; ok {
			prev.Dups++
			continue
		}
		byKey[key] = fin
		rep.Findings = append(rep.Findings, fin)
	}
	if !f.opt.SkipMinimize && f.opt.MaxFindings >= 0 && rep.DivergentBlocks > f.opt.MaxFindings {
		rep.MinimizeSkipped = rep.DivergentBlocks - f.opt.MaxFindings
	}

	// Referee pass (after dedupe so each distinct reproducer runs once).
	if f.mca != nil {
		for _, fin := range rep.Findings {
			v, err := f.mca.Score(fin.Instructions, fin.Arch)
			if err != nil {
				fin.MCAErr = err.Error()
				continue
			}
			fin.MCA = metrics.Round2(v)
		}
	}

	sortFindings(rep.Findings)
	rep.Clusters = clusterFindings(rep.Findings)

	// Sentinel pass: record the first AgreeingSamples agreeing comparisons
	// (in deterministic block/target order) as Divergent=false corpus
	// entries, so the regression gate also notices blocks that start
	// diverging later.
	if f.opt.AgreeingSamples > 0 {
		if err := f.sampleAgreeing(ctx, blocks, results, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sampleAgreeing records one agreeing (block, target) per block until the
// AgreeingSamples budget is met, spreading samples across targets round-robin
// so the sentinels cover different arches and modes.
func (f *Fuzzer) sampleAgreeing(ctx context.Context, blocks []bhive.GenBlock, results []blockResult, rep *Report) error {
	ti := 0
	for i := range blocks {
		if len(rep.Agreeing) >= f.opt.AgreeingSamples {
			break
		}
		if len(results[i].divs) > 0 || len(results[i].errs) > 0 {
			continue
		}
		t := f.targets[ti%len(f.targets)]
		ti++
		code := blocks[i].Code
		if t.Mode == facile.Loop {
			code = blocks[i].LoopCode
		}
		cmp, err := f.compare(ctx, code, t)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if cmp.divergent {
			continue
		}
		hexCode := hex.EncodeToString(code)
		rep.Agreeing = append(rep.Agreeing, Reproducer{
			ID:           FindingID(hexCode, t.Arch, modeWire(t.Mode)),
			Hex:          hexCode,
			Arch:         t.Arch,
			Mode:         modeWire(t.Mode),
			Divergent:    false,
			Facile:       cmp.facile,
			Pipesim:      cmp.pipesim,
			RelThreshold: f.opt.RelThreshold,
			AbsThreshold: f.opt.AbsThreshold,
			Seed:         f.opt.Seed,
			Category:     blocks[i].Category,
			Note:         "sentinel: models agreed when recorded",
		})
	}
	return nil
}

// blockTargets returns the targets block i is swept on: TargetsPerBlock
// consecutive entries of the target list starting at a rotating offset, so
// consecutive blocks cover different slices and the whole batch covers every
// target uniformly. The assignment is a pure function of (i, targets,
// TargetsPerBlock) — re-running the same options re-sweeps the same pairs.
func (f *Fuzzer) blockTargets(i int) []Target {
	k := f.opt.TargetsPerBlock
	if k < 0 || k >= len(f.targets) {
		return f.targets
	}
	out := make([]Target, 0, k)
	off := (i * k) % len(f.targets)
	for j := 0; j < k; j++ {
		out = append(out, f.targets[(off+j)%len(f.targets)])
	}
	return out
}

// sweepBlock compares one generated block on its assigned targets, using the
// U variant for TPU targets and the branch-terminated L variant for TPL. A
// cheap screening window runs first; only screen hits pay for the
// full-window comparison, and only full-window divergences count.
func (f *Fuzzer) sweepBlock(ctx context.Context, i int, blk *bhive.GenBlock) blockResult {
	var res blockResult
	for _, t := range f.blockTargets(i) {
		code := blk.Code
		if t.Mode == facile.Loop {
			code = blk.LoopCode
		}
		cmp, err := f.screen(ctx, code, t)
		if err == nil && cmp.divergent {
			cmp, err = f.compare(ctx, code, t)
		}
		if err != nil {
			if ctx.Err() != nil {
				return res
			}
			res.errs = append(res.errs, err)
			continue
		}
		if cmp.divergent {
			res.divs = append(res.divs, rawDivergence{target: t, cmp: cmp})
		}
	}
	return res
}

// triage turns one divergent (block, target) into a Finding, minimizing the
// block first unless minimization is disabled or the budget is spent.
func (f *Fuzzer) triage(ctx context.Context, blk *bhive.GenBlock, d rawDivergence, minimized *int) (*Finding, error) {
	instrs := blk.Instrs
	origCode := blk.Code
	if d.target.Mode == facile.Loop {
		instrs = blk.LoopInstrs
		origCode = blk.LoopCode
	}
	cur, cmp := instrs, d.cmp
	if !f.opt.SkipMinimize && (f.opt.MaxFindings < 0 || *minimized < f.opt.MaxFindings) {
		*minimized++
		var err error
		cur, cmp, err = f.minimize(ctx, instrs, d.target, d.cmp)
		if err != nil {
			return nil, err
		}
	}
	code, err := asm.EncodeBlock(cur)
	if err != nil {
		return nil, fmt.Errorf("re-encode minimized block: %w", err)
	}
	return f.newFinding(blk, d.target, code, origCode, cmp)
}

// sortFindings orders findings canonically: most-duplicated first, then by
// signature, target, and hex, so reports are deterministic.
func sortFindings(fins []*Finding) {
	sort.Slice(fins, func(i, j int) bool {
		a, b := fins[i], fins[j]
		if a.Dups != b.Dups {
			return a.Dups > b.Dups
		}
		if a.Signature != b.Signature {
			return a.Signature < b.Signature
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		return a.Hex < b.Hex
	})
}
