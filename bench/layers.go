package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"

	"facile"
	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/cycleratio"
	"facile/internal/lru"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// replayChunk bounds how many built blocks and dependence graphs a layer
// replay holds at once: the passes walk the ops in chunks, timing each
// layer's calls over a chunk, so a 100,000-block stream never has all its
// blocks alive together.
const replayChunk = 1024

// lruLookups is how many cache hits the lru pass times: a single pass over a
// small working set would last well under a millisecond.
const lruLookups = 200_000

// sinkF keeps the compiler from discarding replayed calls.
var sinkF float64

// coreBounds names the per-component bound spans in pipeline order.
var coreBounds = [core.NumComponents]string{
	"core.predec", "core.dec", "core.dsb", "core.lsd", "core.issue", "core.ports", "core.precedence",
}

// replayBlocks replays ops through the layers below the facile Engine —
// x86.DecodeBlock, bb.Builder.Build, core.Analysis.Predict, each exported
// per-component bound function, and cycleratio.Solver.MaxRatio — with
// spans under parent. Builders start fresh per target, exactly as the
// engine's do, and see warm (untimed) first and then ops in order, so the
// descriptor memo grows as it did in the workload; a builder is dropped
// after its target's last op, as a sweep drops each variant's. cfgs maps
// each op's arch to its configuration. nested is how many of the replayed
// blocks the parent's pass analyzed as cache misses, the share it
// contains. It returns the memo entries the builders held at the end and
// the mean dependence-graph edges per block.
func replayBlocks(r *recorder, parent *span, ops, warm []op, cfgs map[string]*uarch.Config, nested int64) (memo int, edges float64, err error) {
	builders := make(map[string]*bb.Builder)
	builder := func(arch string) (*bb.Builder, error) {
		if bd := builders[arch]; bd != nil {
			return bd, nil
		}
		cfg := cfgs[arch]
		if cfg == nil {
			return nil, fmt.Errorf("replay: no configuration for %q", arch)
		}
		bd := bb.NewBuilder(cfg)
		builders[arch] = bd
		return bd, nil
	}
	for i := range warm {
		bd, err := builder(warm[i].arch)
		if err != nil {
			return 0, 0, err
		}
		if _, err := bd.Build(warm[i].code); err != nil {
			return 0, 0, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	lastUse := make(map[string]int)
	for i := range ops {
		lastUse[ops[i].arch] = i
	}

	bbSpan := r.open("bb", parent)
	bbSpan.Nested = nested
	x86Span := r.open("x86", bbSpan)
	coreSpan := r.open("core", parent)
	coreSpan.Nested = nested
	var boundSpans [core.NumComponents]*span
	for c := range boundSpans {
		boundSpans[c] = r.open(coreBounds[c], coreSpan)
	}
	crSpan := r.open("cycleratio", boundSpans[core.Precedence])

	ana := core.NewAnalysis()
	solver := cycleratio.NewSolver()
	bds := make([]*bb.Builder, 0, replayChunk)
	blocks := make([]*bb.Block, 0, replayChunk)
	modes := make([]core.Mode, 0, replayChunk)
	present := make([]core.ComponentSet, 0, replayChunk)
	var applies [core.NumComponents][]int
	var nEdges int64
	for lo := 0; lo < len(ops); lo += replayChunk {
		chunk := ops[lo:min(lo+replayChunk, len(ops))]
		n := int64(len(chunk))
		bds, modes = bds[:0], modes[:0]
		for i := range chunk {
			bd, err := builder(chunk[i].arch)
			if err != nil {
				return 0, 0, err
			}
			bds, modes = append(bds, bd), append(modes, coreModeOf(chunk[i].mode))
		}
		x86Span.timedMedian(n, func() {
			for i := range chunk {
				if _, err := x86.DecodeBlock(chunk[i].code); err != nil {
					x86Span.Errors++
				}
			}
		})
		blocks = blocks[:0]
		bbSpan.timed(n, func() {
			for i := range chunk {
				b, err := bds[i].Build(chunk[i].code)
				if err != nil {
					bbSpan.Errors++
				}
				blocks = append(blocks, b)
			}
		})
		if bbSpan.Errors > 0 {
			return 0, 0, fmt.Errorf("replay: bb.Build failed on %d blocks", bbSpan.Errors)
		}
		for arch, last := range lastUse {
			if last < lo+len(chunk) && builders[arch] != nil {
				memo += builders[arch].DescCacheLen()
				delete(builders, arch)
			}
		}
		coreSpan.timedMedian(n, func() {
			present = present[:0]
			for i, b := range blocks {
				p := ana.Predict(b, modes[i], core.Options{})
				sinkF += p.TP
				present = append(present, p.Bounds.Present)
			}
		})
		for c := range applies {
			applies[c] = applies[c][:0]
			for i := range blocks {
				if present[i].Has(core.Component(c)) {
					applies[c] = append(applies[c], i)
				}
			}
			timeBound(boundSpans[c], core.Component(c), blocks, modes, applies[c])
		}
		graphs := make([]*cycleratio.Graph, len(blocks))
		for i, b := range blocks {
			graphs[i], _ = core.BuildDependenceGraph(b)
			nEdges += int64(len(graphs[i].Edges))
		}
		crSpan.timedMedian(n, func() {
			for _, g := range graphs {
				res, err := solver.MaxRatio(g)
				if err != nil {
					crSpan.Errors++
				}
				sinkF += res.Ratio
			}
		})
	}
	// A bound that applied to no block of the workload is still measured,
	// over every block, so the layer metric exists; none of it is nested in
	// the core pass.
	for c, s := range boundSpans {
		if s.Calls > 0 {
			continue
		}
		s.Nested = 0
		for lo := 0; lo < len(ops); lo += replayChunk {
			chunk := ops[lo:min(lo+replayChunk, len(ops))]
			blocks, modes = blocks[:0], modes[:0]
			all := make([]int, len(chunk))
			for i := range chunk {
				bd, err := builder(chunk[i].arch)
				if err != nil {
					return 0, 0, err
				}
				b, err := bd.Build(chunk[i].code)
				if err != nil {
					return 0, 0, fmt.Errorf("replay: %w", err)
				}
				blocks, modes, all[i] = append(blocks, b), append(modes, coreModeOf(chunk[i].mode)), i
			}
			timeBound(s, core.Component(c), blocks, modes, all)
		}
	}
	for _, s := range []*span{x86Span, bbSpan, crSpan} {
		s.close()
	}
	for _, s := range boundSpans {
		s.close()
	}
	coreSpan.close()
	return memo, float64(nEdges) / float64(len(ops)), nil
}

func coreModeOf(m facile.Mode) core.Mode {
	if m == facile.Loop {
		return core.TPL
	}
	return core.TPU
}

// timeBound times one exported per-component bound function over the
// blocks at idx, as one chunk of its span. Each component has its own loop
// so the timed region holds nothing but the calls: the cheapest bounds
// cost a few nanoseconds, about what an indirect call would add.
func timeBound(s *span, c core.Component, blocks []*bb.Block, modes []core.Mode, idx []int) {
	s.timedMedian(int64(len(idx)), func() {
		switch c {
		case core.Predec:
			for _, i := range idx {
				sinkF += core.PredecBound(blocks[i], modes[i])
			}
		case core.Dec:
			for _, i := range idx {
				sinkF += core.DecBound(blocks[i])
			}
		case core.DSB:
			for _, i := range idx {
				sinkF += core.DSBBound(blocks[i])
			}
		case core.LSD:
			for _, i := range idx {
				sinkF += core.LSDBound(blocks[i])
			}
		case core.Issue:
			for _, i := range idx {
				sinkF += core.IssueBound(blocks[i])
			}
		case core.Ports:
			for _, i := range idx {
				sinkF += core.PortsBound(blocks[i])
			}
		case core.Precedence:
			for _, i := range idx {
				v, _ := core.PrecedenceBound(blocks[i])
				sinkF += v
			}
		}
	})
}

// lruKey mirrors the prediction cache's key: the block bytes, the target
// and the throughput notion.
type lruKey struct {
	arch string
	mode facile.Mode
	code string
}

// hashLRUKey is FNV-1a over the key, as the engine routes its cache keys to
// shards.
func hashLRUKey(k lruKey) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range []string{k.code, k.arch} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	return (h ^ uint64(k.mode+1)) * 1099511628211
}

// replayLRU times cache hits in internal/lru: a sharded cache shaped like
// the engine's default one holds ops (at most its capacity), and the pass
// looks each of them up, repeatedly, lruLookups times in all. nested is how
// many hits the parent's pass served.
func replayLRU(r *recorder, parent *span, ops []op, nested int64) {
	ops = ops[:min(len(ops), facile.DefaultCacheSize)]
	cache := lru.NewSharded[lruKey, *op](facile.DefaultCacheSize, 0, 4*runtime.GOMAXPROCS(0), hashLRUKey)
	keys := make([]lruKey, len(ops))
	for i := range ops {
		keys[i] = lruKey{arch: ops[i].arch, mode: ops[i].mode, code: string(ops[i].code)}
		cache.GetOrAdd(keys[i], func() *op { return &ops[i] })
	}
	s := r.open("lru", parent)
	s.Nested = nested
	for s.Calls < lruLookups {
		s.timed(int64(len(keys)), func() {
			for _, k := range keys {
				if _, ok := cache.Get(k); !ok {
					s.Errors++
				}
			}
		})
	}
	s.close()
}

// runtimeSample reads the runtime counters behind the runtime layer's
// metrics: GC CPU time, CPU time in use, and bytes allocated.
type runtimeSample struct{ gc, used, alloc float64 }

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		gc:    s[0].Value.Float64(),
		used:  s[1].Value.Float64() - s[2].Value.Float64(),
		alloc: float64(s[3].Value.Uint64()),
	}
}

// gcFrac returns the share of used CPU time the GC took between two samples.
func gcFrac(a, b runtimeSample) float64 {
	if b.used <= a.used {
		return 0
	}
	return (b.gc - a.gc) / (b.used - a.used)
}

// archConfigs resolves the benchmark's arch rotation in the default
// registry, the configurations facile.NewEngine's builders use.
func archConfigs() (map[string]*uarch.Config, error) {
	out := make(map[string]*uarch.Config)
	for _, a := range benchArchs {
		cfg, err := uarch.Default().ByName(a)
		if err != nil {
			return nil, err
		}
		out[a] = cfg
	}
	return out, nil
}

// layerInputs is what the replays measured besides spans.
type layerInputs struct {
	wire   wireStats
	memo   int     // bb descriptor memo entries at the end of the bb pass
	edges  float64 // mean dependence-graph edges per block
	gcFrac float64 // during the facile pass
	alloc  float64 // heap bytes allocated per block during the facile pass
}

// perLayer names the per-layer metrics every workload reports with
// -trace 1, in BENCHMARK.json order.
var perLayer = []string{
	"http.self_us_per_req",
	"server.self_us_per_req", "server.req_bytes_per_req", "server.resp_bytes_per_req",
	"server.shed_frac", "server.microbatch_size_mean",
	"facile.self_us_per_block", "facile.cache_hit_ratio", "facile.cache_evictions_per_block",
	"lru.warm_hit_ns_per_block",
	"bb.build_us_per_block", "bb.desc_memo_entries",
	"x86.decode_us_per_block",
	"core.predict_us_per_block",
	"core.predec_ns_per_block", "core.dec_ns_per_block", "core.dsb_ns_per_block", "core.lsd_ns_per_block",
	"core.issue_ns_per_block", "core.ports_ns_per_block", "core.precedence_ns_per_block",
	"cycleratio.max_ratio_ns_per_block", "cycleratio.edges_per_block",
	"runtime.gc_cpu_frac", "runtime.alloc_bytes_per_block",
}

// fillLayers derives the per-layer metrics every workload reports from its
// spans, and runs the two trace checks: no self time negative by more than
// 10% of its parent, and the top-level pass within 10% of the untraced
// per-operation time. Counters the untraced run measured against a server
// are kept; the others come from the replay's http pass.
func fillLayers(res *result, r *recorder, in layerInputs, top *span, untracedNS float64) error {
	need := func(name string) (*span, error) {
		if s := r.get(name); s != nil && s.Calls > 0 {
			return s, nil
		}
		return nil, fmt.Errorf("trace: no %s pass", name)
	}
	L := res.Layers
	self := func(metric, name, unit string, div float64) error {
		s, err := need(name)
		if err != nil {
			return err
		}
		L[metric] = value{Value: r.selfNS(s) / float64(s.Calls) / div, Unit: unit, Samples: int(s.Calls)}
		return nil
	}
	per := func(metric, name, unit string, div float64) error {
		s, err := need(name)
		if err != nil {
			return err
		}
		L[metric] = value{Value: s.perCallNS() / div, Unit: unit, Samples: int(s.Calls)}
		return nil
	}
	for _, err := range []error{
		self("http.self_us_per_req", "http", "us", 1e3),
		self("server.self_us_per_req", "server", "us", 1e3),
		self("facile.self_us_per_block", "facile", "us", 1e3),
		per("lru.warm_hit_ns_per_block", "lru", "ns", 1),
		per("bb.build_us_per_block", "bb", "us", 1e3),
		per("x86.decode_us_per_block", "x86", "us", 1e3),
		per("core.predict_us_per_block", "core", "us", 1e3),
		per("cycleratio.max_ratio_ns_per_block", "cycleratio", "ns", 1),
	} {
		if err != nil {
			return err
		}
	}
	for _, name := range coreBounds {
		if err := per(name+"_ns_per_block", name, "ns", 1); err != nil {
			return err
		}
	}
	L["server.req_bytes_per_req"] = value{Value: in.wire.req, Unit: "bytes"}
	L["server.resp_bytes_per_req"] = value{Value: in.wire.resp, Unit: "bytes"}
	if _, ok := L["server.shed_frac"]; !ok {
		L["server.shed_frac"] = value{Value: in.wire.shedFrac, Unit: "fraction", Note: "the http replay pass"}
		L["server.microbatch_size_mean"] = value{Value: in.wire.microBatch, Unit: "blocks", Note: "the http replay pass"}
	}
	L["bb.desc_memo_entries"] = value{Value: float64(in.memo), Unit: "count"}
	L["cycleratio.edges_per_block"] = value{Value: in.edges, Unit: "count"}
	L["runtime.gc_cpu_frac"] = value{Value: in.gcFrac, Unit: "fraction"}
	L["runtime.alloc_bytes_per_block"] = value{Value: in.alloc, Unit: "bytes"}

	res.TraceFlags = append(res.TraceFlags, r.negativeSelf(0.1)...)
	if got := top.perCallNS(); math.Abs(got-untracedNS) > 0.1*untracedNS {
		res.TraceFlags = append(res.TraceFlags, fmt.Sprintf(
			"top-level %s pass %.1f us per call is more than 10%% from the untraced %.1f us", top.Name, got/1e3, untracedNS/1e3))
	}
	res.Spans = r.spans
	return nil
}
