package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"facile"
	"facile/internal/sweep"
	"facile/internal/uarch"
)

// The sweep workload is the facile-sweep path: sweep.Run, in process, over
// a 108-point SKL design-space grid and loop-mode blocks. It uses bb and
// core differently from the other workloads — fresh per-variant builders,
// uncached AnalyzeVariantBatchN, DeriveVariant — and bypasses the
// prediction cache and the wire, so cache or wire changes must not move it.
//
// The blocks come in sets. Each set gets one whole-grid sweep with one
// worker per CPU, the facile-sweep default, which gives the throughput,
// and then one one-point sweep per design point, in turn: sweep.Run over a
// grid of that point alone, the call a designer makes to try one
// configuration, which gives the latency. Every one-point sweep is checked
// against its row of the set's whole-grid frontier. Each set has blocks of
// its own and each metric is the midmean over sets (or groups of sets), so
// no metric rests on the cost of a few blocks.

// sweepGrid is a frozen copy of testdata/sweep/skl_frontier.json, so edits
// to the repository's example grid cannot change the workload.
//
//go:embed testdata/skl_frontier.json
var sweepGrid []byte

type sweepState struct {
	eng  *facile.Engine
	grid *sweep.Grid
}

func sweepInputs(cfg *config) []op { return loopOps(cfg.seed, cfg.sz.sweepSets*cfg.sz.sweepBlocks) }

func sweepSetup(*config) (any, error) {
	eng, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		return nil, err
	}
	grid, err := sweep.ParseGrid(sweepGrid)
	if err != nil {
		return nil, err
	}
	return &sweepState{eng: eng, grid: grid}, nil
}

// sweepWorkload is the sweep.Workload of ops.
func sweepWorkload(ops []op) sweep.Workload {
	wl := sweep.Workload{Blocks: make([][]byte, len(ops)), Mode: facile.Loop}
	for i := range ops {
		wl.Blocks[i] = ops[i].code
	}
	return wl
}

func sweepChild(cfg *config, state any, ops []op) (*result, error) {
	st := state.(*sweepState)
	res := newResult("sweep")
	points := st.grid.Points()
	grids := onePointGrids(st.grid)
	n := cfg.sz.sweepBlocks
	var rates, secs []float64
	var lats [][]float64
	frontiers := sha256.New()
	probe := newRepeatProbe(os.Getpid(), cfg.meter())
	for lo := 0; lo < len(ops); lo += n {
		wl := sweepWorkload(ops[lo : lo+n])
		if err := probe.begin(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := sweep.Run(bgCtx, st.eng, st.grid, wl, sweep.Options{Workers: cfg.procs})
		sec := time.Since(t0).Seconds()
		res.Attempted += int64(points)
		var lat []float64
		if err == nil {
			lat, err = onePointSweeps(res, st, wl, grids, out)
		}
		if _, perr := probe.end(); perr != nil {
			return nil, perr
		}
		if err != nil {
			return nil, fmt.Errorf("blocks %d-%d: %w", lo, lo+n-1, err)
		}
		for _, f := range out.Failed {
			res.fail("blocks %d-%d: variant %s: %s", lo, lo+n-1, f.Name, f.Error)
		}
		if len(out.Variants)+len(out.Failed) != points {
			res.problem("blocks %d-%d: %d variants and %d failures for %d points", lo, lo+n-1, len(out.Variants), len(out.Failed), points)
		}
		js, err := json.Marshal(out)
		if err != nil {
			return nil, err
		}
		frontiers.Write(js)
		rates, secs, lats = append(rates, float64(points*n)/sec), append(secs, sec), append(lats, lat)
	}
	res.Digest = hex.EncodeToString(frontiers.Sum(nil))
	probe.record(res)
	// The base pass's analyses are the predictions the frontiers are
	// computed against: each must be the max of its considered bounds.
	for i := range ops {
		a, err := st.eng.Analyze(bgCtx, ops[i].request(facile.DetailPrediction))
		if err == nil {
			err = checkInvariant(a)
		}
		if err != nil {
			res.problem("base block %d: %v", i, err)
		}
	}

	res.setTiming("blocks_per_s", "blocks/s", asRate, rates, probe.slows, len(rates),
		"variant x block analyses per whole-grid sweep")
	res.setLatency(lats, probe.slows)
	sec := median(secs)
	res.Extra["variants_per_s"] = value{Value: float64(points) / sec, Unit: "variants/s", Note: "as measured"}
	es := st.eng.Stats()
	res.setCache(float64(es.Hits), float64(es.Misses), float64(es.Evictions), int(es.Hits+es.Misses))

	if cfg.trace {
		if err := traceSweep(cfg, res, st, ops[:n], sec*1e9); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// onePointGrids returns one single-point grid per point of g, in the order
// g enumerates its points.
func onePointGrids(g *sweep.Grid) []*sweep.Grid {
	var out []*sweep.Grid
	idx := make([]int, len(g.Axes))
	for {
		one := &sweep.Grid{Base: g.Base, Mode: g.Mode, Axes: make([]sweep.Axis, len(g.Axes))}
		for k, ax := range g.Axes {
			one.Axes[k] = sweep.Axis{Param: ax.Param, Values: ax.Values[idx[k] : idx[k]+1]}
			if len(ax.Labels) > 0 {
				one.Axes[k].Labels = ax.Labels[idx[k] : idx[k]+1]
			}
		}
		out = append(out, one)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < len(g.Axes[k].Values) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// onePointSweeps runs one one-point sweep per point of the grid over wl,
// in turn, and checks each against its row of the whole-grid frontier. It
// returns each sweep's latency in µs.
func onePointSweeps(res *result, st *sweepState, wl sweep.Workload, grids []*sweep.Grid, frontier *sweep.Result) ([]float64, error) {
	rows := make(map[string]sweep.VariantResult, len(frontier.Variants))
	for _, v := range frontier.Variants {
		v.Rank = 1
		rows[v.Name] = v
	}
	lat := make([]float64, len(grids))
	for k, g := range grids {
		t0 := time.Now()
		out, err := sweep.Run(bgCtx, st.eng, g, wl, sweep.Options{Workers: 1})
		lat[k] = float64(time.Since(t0).Nanoseconds()) / 1e3
		res.Attempted++
		switch {
		case err != nil:
			return nil, err
		case len(out.Failed) > 0:
			res.fail("one-point sweep %d: variant %s: %s", k, out.Failed[0].Name, out.Failed[0].Error)
		case len(out.Variants) != 1:
			res.fail("one-point sweep %d: %d variants from a one-point grid", k, len(out.Variants))
		case !reflect.DeepEqual(out.Variants[0], rows[out.Variants[0].Name]):
			res.fail("one-point sweep %d: variant %s differs from its whole-grid row", k, out.Variants[0].Name)
		}
	}
	return lat, nil
}

// traceSweep replays the sweep: the top-level pass at the workload's worker
// count; a serial pass (one worker) that the layers below are attributed
// against — DeriveVariant per point, AnalyzeVariantBatchN per variant, and
// under it x86, bb, core and cycleratio over every variant's blocks with
// fresh per-variant builders; and POST /v1/sweep over the wire.
func traceSweep(cfg *config, res *result, st *sweepState, ops []op, untracedNS float64) error {
	r := &recorder{workload: "sweep"}
	runs := cfg.sz.sweepReplayRuns
	wl := sweep.Workload{Blocks: make([][]byte, len(ops)), Mode: facile.Loop}
	hexes := make([]string, len(ops))
	for i := range ops {
		wl.Blocks[i] = ops[i].code
		hexes[i] = hex.EncodeToString(ops[i].code)
	}
	body, err := json.Marshal(map[string]any{
		"grid": json.RawMessage(sweepGrid), "blocks": hexes, "mode": "loop", "workers": 1,
	})
	if err != nil {
		return err
	}
	plan := &wirePlan{conns: 1, n: runs, traffic: traffic{build: func(int64) wireReq { return wireReq{path: "/v1/sweep", body: body} }}}
	httpSpan, ws, err := replayHTTP(r, cfg, plan)
	if err != nil {
		return err
	}
	serverSpan, err := replayServer(r, httpSpan, plan)
	if err != nil {
		return err
	}
	serialRun := func(eng *facile.Engine, _ int) (int64, error) {
		out, err := sweep.Run(bgCtx, eng, st.grid, wl, sweep.Options{Workers: 1})
		if err == nil && len(out.Failed) > 0 {
			err = fmt.Errorf("variant %s failed: %s", out.Failed[0].Name, out.Failed[0].Error)
		}
		return 1, err
	}
	if _, err := replayEngine(r, serverSpan, "sweep.wire", runs, nil, serialRun); err != nil {
		return err
	}

	// Top level: sweeps as the workload runs them.
	top := r.open("sweep", nil)
	for i := 0; i < runs; i++ {
		if _, err := sweep.Run(bgCtx, st.eng, st.grid, wl, sweep.Options{Workers: cfg.procs}); err != nil {
			top.Errors++
		}
		top.Calls++
	}
	top.close()

	serial, err := replayEngine(r, nil, "sweep.serial", runs, nil, serialRun)
	if err != nil {
		return err
	}
	points, err := st.grid.Enumerate()
	if err != nil {
		return err
	}
	// Each point is derived and its variant analyzed in turn, and the
	// variant dropped, as a one-worker sweep does, as many times as the
	// serial pass swept the grid.
	reqs := make([]facile.Request, len(ops))
	for i := range ops {
		reqs[i] = ops[i].request(facile.DetailPrediction)
	}
	reg := st.eng.Registry()
	derive := r.open("uarch", serial.span)
	fac := r.open("facile", serial.span)
	rt0 := readRuntime()
	for range runs {
		for _, p := range points {
			var v *facile.Variant
			derive.timed(1, func() { v, err = reg.DeriveVariant(p.Name, st.grid.Base, p.Overlay) })
			if err != nil {
				return fmt.Errorf("DeriveVariant %s: %w", p.Name, err)
			}
			fac.timed(int64(len(reqs)), func() {
				for _, out := range st.eng.AnalyzeVariantBatchN(bgCtx, v, reqs, 1) {
					if out.Err != nil {
						fac.Errors++
					}
				}
			})
		}
	}
	rt1 := readRuntime()
	derive.Nested, fac.Nested = derive.Calls, fac.Calls
	derive.close()
	fac.close()

	// The layers below see every variant's blocks, each variant with a
	// fresh builder, as AnalyzeVariantBatchN builds them.
	cfgs := make(map[string]*uarch.Config, len(points))
	vops := make([]op, 0, len(points)*len(ops))
	for _, p := range points {
		c, err := uarch.Default().DeriveConfig(p.Name, st.grid.Base, p.Overlay)
		if err != nil {
			return err
		}
		cfgs[p.Name] = c
		for _, o := range ops {
			o.arch = p.Name
			vops = append(vops, o)
		}
	}
	memo, edges, err := replayBlocks(r, fac, vops, nil, cfgs, int64(len(vops)*runs))
	if err != nil {
		return err
	}
	// The base pass of every run after a pass's first is served from cache.
	replayLRU(r, serial.span, ops, int64(len(ops)*(runs-1)))
	if err := fillLayers(res, r, layerInputs{
		wire: ws, memo: memo, edges: edges,
		gcFrac: gcFrac(rt0, rt1), alloc: (rt1.alloc - rt0.alloc) / float64(fac.Calls),
	}, top, untracedNS); err != nil {
		return err
	}
	res.Extra["uarch.derive_us_per_variant"] = value{Value: derive.perCallNS() / 1e3, Unit: "us"}
	res.Extra["sweep.self_ms_per_run"] = value{Value: r.selfNS(serial.span) / float64(serial.span.Calls) / 1e6, Unit: "ms"}
	return nil
}
