package facile

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/kernel"
	"facile/internal/lru"
	"facile/internal/uarch"
)

// DefaultCacheSize is the prediction-cache capacity used when EngineConfig
// leaves CacheSize unset.
const DefaultCacheSize = 4096

// DefaultMaxCodeBytes bounds Request.Code when EngineConfig leaves
// MaxCodeBytes unset. Real basic blocks are tens of bytes; the generous
// default exists to bound cache-key memory against hostile input, not to
// constrain legitimate blocks.
const DefaultMaxCodeBytes = 1 << 20

// DefaultCacheShards returns the automatic prediction-cache shard count
// used when EngineConfig leaves CacheShards unset: the smallest power of two
// holding four shards per CPU, capped at 256 (and further clamped so every
// shard holds at least one entry). Four-per-CPU keeps the collision
// probability of concurrent lookups low without fragmenting small caches.
func DefaultCacheShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n > 256 {
		n = 256
	}
	// Round up to a power of two (lru.NewSharded would too; doing it here
	// keeps the reported default exact).
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// EngineConfig configures an Engine. The zero value is a valid
// configuration: all microarchitectures, DefaultCacheSize cache entries, and
// one worker per CPU for batches.
type EngineConfig struct {
	// Archs restricts the engine to a fixed subset of microarchitectures
	// (names as known to the registry). Empty means the engine serves
	// whatever its registry holds at call time — including arches
	// registered after the engine was constructed.
	Archs []string
	// Registry supplies the engine's microarchitectures. Nil selects the
	// process-wide DefaultRegistry.
	Registry *ArchRegistry
	// CacheSize bounds the prediction LRU (entries). Zero selects
	// DefaultCacheSize; negative disables memoization entirely (every call
	// recomputes — the uncached baseline for benchmarks and for
	// non-repeating streams).
	CacheSize int
	// Workers is the batch worker-pool size. Values <= 0 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxCodeBytes bounds Request.Code; oversized blocks are rejected at
	// the Analyze boundary with an ErrBadRequest-classified error. Values
	// <= 0 select DefaultMaxCodeBytes.
	MaxCodeBytes int
	// CacheShards splits the prediction LRU into independently locked
	// shards so high-parallelism warm hits do not contend on one mutex.
	// Zero selects DefaultCacheShards(); positive values are rounded up to
	// a power of two (1 is the single-lock layout); negative values are
	// invalid.
	CacheShards int
	// MaxCacheBytes bounds the prediction cache's accounted size (the sum
	// of per-entry size estimates, split evenly across shards): entries
	// beyond the budget are evicted least-recently-used first. Zero or
	// negative means no byte budget.
	MaxCacheBytes int64
}

// Engine is a reusable, concurrency-safe analysis engine and the home of the
// public entrypoint, Analyze. Constructed once per microarchitecture set, it
// amortizes all per-call setup that a one-shot analysis pays every time:
//
//   - per-microarchitecture configurations are resolved through the
//     registry;
//   - complete analyses — prediction, ordered bound breakdown,
//     counterfactual speedups, rendered report — are memoized in a bounded
//     LRU keyed by (code bytes, microarchitecture, mode); repeated queries
//     become cache hits, and a warm Analyze at any Detail performs exactly
//     one cache entry resolution and no heap allocations. Decoded blocks
//     are not cached: an entry keeps only what its analysis returns;
//   - Analyze and every batch item take one per-request path (see
//     Engine.analyze): validate, resolve the microarchitecture, probe the
//     cache, and fill a miss. The miss builds its block into a pooled
//     worker scratch's block (see workerScratch) with bb.BuildInto and
//     computes the full bound vector in the scratch's analysis context,
//     both warm after the first misses, and its result payloads are carved
//     from the scratch's slabs — sized for the worker's chunk in a batch,
//     for one block in a single request;
//   - a private analysis — a request with Request.Variant set, or any
//     request when memoization is disabled — has no cache entry: it is
//     computed straight into an Analysis at the requested Detail, carved
//     from the same slabs;
//   - AnalyzeEach fans independent requests across a worker pool and hands
//     each result to a callback, observing its context between items so a
//     cancelled batch stops computing; AnalyzeBatch collects the results in
//     request order. The same worker loop runs the items of a design-space
//     sweep (see internal/kernel).
//
// Simulate validates its request the same way but bypasses the cache: it
// builds its own block and runs the reference simulator.
//
// Cached results are shared between callers: the Analysis values returned by
// an Engine (and their Prediction/Bounds/Speedups fields) must be
// treated as read-only.
type Engine struct {
	reg      *uarch.Registry
	pub      *ArchRegistry                         // the public view handed out by Registry()
	restrict map[string]bool                       // non-nil iff EngineConfig.Archs was set; canonical names
	archs    []string                              // configured order when restricted
	cache    *lru.Sharded[engineKey, *engineEntry] // nil when memoization is disabled
	workers  int
	maxCode  int

	// scratch pools *workerScratch values across misses and batches. spare
	// holds one more, tried first: a collection empties the pool but not
	// spare, so the first miss after it still finds a warm scratch.
	scratch sync.Pool
	spare   atomic.Pointer[workerScratch]

	// uncached counts private analyses (variants, and every analysis when
	// memoization is disabled), added once per worker scratch as it goes
	// back to the pool, so a batch's workers do not contend on it; cached
	// resolutions are counted by per-shard cache counters and summed in
	// Stats.
	uncached atomic.Uint64
}

// engineKey identifies one memoized analysis. The registry version makes
// cache entries registry-scoped: two registries' same-named arches (or an
// engine re-pointed at a different registry) can never alias each other's
// cached analyses.
type engineKey struct {
	arch string
	ver  uint64
	mode Mode
	code string // raw block bytes
}

// hashEngineKey routes a cache key to its shard: FNV-1a over the code bytes
// (the discriminating part of almost every key), with the arch name, mode,
// and registry version folded in. It allocates nothing, so the zero-copy
// warm probe stays allocation-free.
func hashEngineKey(k engineKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.code); i++ {
		h ^= uint64(k.code[i])
		h *= prime64
	}
	for i := 0; i < len(k.arch); i++ {
		h ^= uint64(k.arch[i])
		h *= prime64
	}
	h ^= uint64(k.mode) + 1
	h *= prime64
	h ^= k.ver
	h *= prime64
	return h
}

// entryBaseBytes is the fixed per-entry footprint estimate: the entry
// struct and its cache bookkeeping (map slot, list element). The accounted
// sizes are deterministic estimates for budgeting, not measured heap bytes.
const entryBaseBytes = 512

// entrySizeBytes estimates an entry's resident footprint once its analysis
// is computed: the durable code copy (shared by the cache key), the bound
// breakdown, the prediction's per-instruction payloads and, once published,
// the prediction's remembered encoding. Error entries carry only the base
// and the code.
func entrySizeBytes(ent *engineEntry) int {
	n := entryBaseBytes + len(ent.code)
	if ent.err != nil {
		return n
	}
	a := &ent.ana
	n += 32 * len(a.Bounds)
	n += 8 * (len(a.Prediction.CriticalChain) + len(a.Prediction.ContendedInstrs))
	for _, s := range a.Prediction.Instructions {
		n += 16 + len(s)
	}
	for _, s := range a.Prediction.Bottlenecks {
		n += 16 + len(s)
	}
	if w := ent.wire.Load(); w != nil {
		n += wireBaseBytes + len(w.json)
	}
	return n
}

// engineEntry is a single-flight cache slot: the first caller computes the
// prediction under once; concurrent callers for the same key block
// on once and then share the result. Decode/lookup errors are cached too, so
// repeatedly querying an undecodable block stays cheap. The entry holds the
// prediction-level Analysis inline; viewOnce derives the other two from it
// on first use — the sorted speedups and the rendered report are a pure
// recombination and rendering of the cached bound vector, never a re-run of
// the component predictors. Nothing in an entry aliases caller memory, so
// callers may reuse their Code buffers as soon as a call returns.
type engineEntry struct {
	once     sync.Once
	viewOnce sync.Once
	// code is the entry's durable copy of the block bytes (the cache key's
	// code string).
	code string
	// bounds is the bound vector the speedup view recombines.
	bounds core.Bounds
	err    error

	// ana is the Analysis served at DetailPrediction. Its prediction's
	// entry is this one, which is how Prediction.AppendJSON finds wire.
	ana Analysis
	// views holds the DetailSpeedups and DetailFull analyses, which share
	// ana's prediction and bound slices; nil until fillViews runs.
	views *[numDetails - 1]Analysis
	// wire is the prediction's remembered encoding, published once by
	// appendPredictionJSON on a cached entry.
	wire atomic.Pointer[predictionWire]

	// eng and ver re-register the entry's size with its cache shard when
	// wire is published: the owning engine and the registry version of the
	// entry's key.
	eng *Engine
	ver uint64
}

// analysis returns the entry's Analysis for one detail level, deriving the
// speedup and report views on first use above DetailPrediction. A warm
// Analyze returns a pointer into the entry without allocating.
func (ent *engineEntry) analysis(d Detail) *Analysis {
	if d == DetailPrediction {
		return &ent.ana
	}
	ent.viewOnce.Do(ent.fillViews)
	return &ent.views[d-1]
}

// fillViews derives the DetailSpeedups and DetailFull analyses from the
// prediction-level one: one speedup recombination, one report rendering.
func (ent *engineEntry) fillViews() {
	v := new([numDetails - 1]Analysis)
	a := ent.ana
	a.Speedups = speedupList(&ent.bounds, coreMode(a.Prediction.Mode))
	v[DetailSpeedups-1] = a
	a.ReportText = renderReport(&a)
	v[DetailFull-1] = a
	ent.views = v
}

// NewEngine constructs an Engine over cfg.Registry (default: the process-
// wide registry). It fails if cfg.Archs names a microarchitecture the
// registry does not hold.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	pub := cfg.Registry
	if pub == nil {
		pub = DefaultRegistry()
	}
	e := &Engine{reg: pub.reg(), pub: pub}
	e.scratch.New = func() any { return new(workerScratch) }
	if len(cfg.Archs) > 0 {
		e.restrict = make(map[string]bool, len(cfg.Archs))
		for _, name := range cfg.Archs {
			uc, err := e.reg.ByName(name)
			if err != nil {
				return nil, err
			}
			if e.restrict[uc.Name] {
				continue
			}
			e.restrict[uc.Name] = true
			e.archs = append(e.archs, uc.Name)
		}
	}
	if cfg.CacheShards < 0 {
		return nil, fmt.Errorf("facile: EngineConfig.CacheShards must be >= 0, got %d", cfg.CacheShards)
	}
	shards := cfg.CacheShards
	if shards == 0 {
		shards = DefaultCacheShards()
	}
	maxBytes := cfg.MaxCacheBytes
	if maxBytes < 0 {
		maxBytes = 0
	}
	switch size := cfg.CacheSize; {
	case size == 0:
		e.cache = lru.NewSharded[engineKey, *engineEntry](DefaultCacheSize, maxBytes, shards, hashEngineKey)
	case size > 0:
		e.cache = lru.NewSharded[engineKey, *engineEntry](size, maxBytes, shards, hashEngineKey)
	}
	e.workers = cfg.Workers
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.maxCode = cfg.MaxCodeBytes
	if e.maxCode <= 0 {
		e.maxCode = DefaultMaxCodeBytes
	}
	return e, nil
}

// Archs returns the microarchitectures this engine serves: the configured
// subset when restricted, otherwise whatever its registry currently holds.
func (e *Engine) Archs() []string {
	if e.restrict != nil {
		out := make([]string, len(e.archs))
		copy(out, e.archs)
		return out
	}
	return e.reg.Names()
}

// Registry returns the registry this engine resolves microarchitectures
// from. Arches registered on it become servable by the engine immediately
// (unless the engine was constructed with a fixed EngineConfig.Archs set).
func (e *Engine) Registry() *ArchRegistry { return e.pub }

// Restricted reports whether the engine was constructed with a fixed
// microarchitecture subset (EngineConfig.Archs), in which case registering
// new arches on its registry does not extend what it serves.
func (e *Engine) Restricted() bool { return e.restrict != nil }

// HasArch reports whether the engine can serve arch (case-insensitively)
// right now.
func (e *Engine) HasArch(arch string) bool {
	_, _, err := e.resolve(arch)
	return err == nil
}

// resolve resolves arch through the registry (case-insensitively) and
// returns its configuration and the registry version, which scopes cache
// keys. Lookup and restriction failures are classified as ErrBadRequest: the
// arch name is client input. Both list the arches the engine serves, which
// a restricted engine's registry outnumbers.
func (e *Engine) resolve(arch string) (*uarch.Config, uint64, error) {
	uc, ver, err := e.reg.Resolve(arch)
	if err != nil {
		return nil, 0, &requestError{err: err, msg: fmt.Sprintf("uarch: unknown microarchitecture %q (one of %s)",
			arch, strings.Join(e.Archs(), ", "))}
	}
	if e.restrict != nil && !e.restrict[uc.Name] {
		return nil, 0, badRequestf("facile: engine not configured for microarchitecture %q (one of %s)",
			arch, strings.Join(e.archs, ", "))
	}
	return uc, ver, nil
}

// checkCode validates the block bytes at the Analyze boundary.
func (e *Engine) checkCode(code []byte) error {
	if len(code) == 0 {
		return errEmptyBlock
	}
	if len(code) > e.maxCode {
		return badRequestf("facile: basic block is %d bytes; the limit is %d (EngineConfig.MaxCodeBytes)",
			len(code), e.maxCode)
	}
	return nil
}

// prepare runs the boundary checks every entry point shares, in the order
// they are reported: mode, microarchitecture (a non-nil variant stands in
// for the registry lookup), code bytes. It returns the resolved
// configuration and the registry version.
func (e *Engine) prepare(variant *uarch.Config, arch string, mode Mode, code []byte) (*uarch.Config, uint64, error) {
	if err := checkMode(mode); err != nil {
		return nil, 0, err
	}
	cfg, ver := variant, uint64(0)
	if cfg == nil {
		var err error
		if cfg, ver, err = e.resolve(arch); err != nil {
			return nil, 0, err
		}
	}
	if err := e.checkCode(code); err != nil {
		return nil, 0, err
	}
	return cfg, ver, nil
}

// analyze is the one per-request path of Analyze and every batch item: the
// boundary checks, then either a private analysis (a variant, or any
// request when memoization is disabled) or one cache resolution and the
// fill on a miss. sc and left are the batch worker's scratch and the blocks
// left in its chunk; a nil sc is a single request's.
func (e *Engine) analyze(ctx context.Context, req *Request, sc *workerScratch, left int) (*Analysis, error) {
	if err := checkDetail(req.Detail); err != nil {
		return nil, err
	}
	var variant *uarch.Config
	if req.Variant != nil {
		variant = req.Variant.cfg
	}
	cfg, ver, err := e.prepare(variant, req.Arch, req.Mode, req.Code)
	if err != nil {
		return nil, err
	}
	if variant != nil || e.cache == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return e.private(cfg, req, sc, left)
	}
	ent, err := e.resolveEntry(ctx, req.Code, cfg.Name, ver, req.Mode)
	if err != nil {
		return nil, err
	}
	e.fill(ent, cfg, ver, req.Code, req.Mode, sc, left)
	if ent.err != nil {
		return nil, ent.err
	}
	return ent.analysis(req.Detail), nil
}

// fill computes ent on its first use: the one miss path of a cached
// request, reached only through analyze. It runs sc.predict into sc's
// durable slabs, sized for the left blocks (this one included) still to be
// filled from them. A nil sc is a single request's miss: the scratch is
// drawn inside the once, so a warm call allocates nothing. A freshly
// computed entry registers its size with its cache shard.
func (e *Engine) fill(ent *engineEntry, cfg *uarch.Config, ver uint64, code []byte, mode Mode, sc *workerScratch, left int) {
	computed := false
	ent.once.Do(func() {
		computed = true
		if sc == nil {
			sc = e.getScratch()
			defer e.putScratch(sc)
		}
		sc.keep.blocksLeft(left)
		b, err := sc.predict(&ent.ana, cfg, code, mode, &sc.keep)
		if err != nil {
			ent.err = err
			return
		}
		ent.bounds = *b
		ent.ana.Prediction.entry = ent
	})
	if computed {
		e.recordEntrySize(ent, cfg.Name, ver, mode)
	}
}

// private computes a private analysis at req's Detail, counted as a miss:
// the speedups and the report are filled directly, not derived from an
// entry. The analysis and its payloads are carved from the worker's
// durable slabs, sized for the left blocks still to be carved from them; a
// single request (nil sc) draws a scratch of its own.
func (e *Engine) private(cfg *uarch.Config, req *Request, sc *workerScratch, left int) (*Analysis, error) {
	if sc == nil {
		sc = e.getScratch()
		defer e.putScratch(sc)
	}
	sc.private++
	rs := &sc.keep
	rs.blocksLeft(left)
	a := &rs.anas.Carve(1)[0]
	b, err := sc.predict(a, cfg, req.Code, req.Mode, rs)
	if err != nil {
		return nil, err
	}
	if req.Detail >= DetailSpeedups {
		m := coreMode(req.Mode)
		a.Speedups = appendSpeedups(rs.sps.Carve(numSpeedups(m))[:0], b, m)
	}
	if req.Detail == DetailFull {
		a.ReportText = renderReport(a)
	}
	return a, nil
}

// resolveEntry performs the one cache resolution of a request: a zero-copy
// probe first, then — on a miss — a GetOrAdd under a durable key copy. The
// context is observed between the probe and the miss: a cancelled caller
// never creates (or pollutes stats with) a miss, while a warm hit is served
// regardless — it costs nothing.
func (e *Engine) resolveEntry(ctx context.Context, code []byte, canon string, ver uint64, mode Mode) (*engineEntry, error) {
	// Probe with a zero-copy string view of code first: the cache does
	// not retain lookup keys, so the unsafe aliasing never outlives this
	// call, and a warm hit performs no allocation. Only a miss pays for
	// the durable key copy. Hit/miss accounting lives in the per-shard
	// cache counters (a probe miss is provisional and uncounted; the
	// GetOrAdd below settles it), so Stats stays race-free without a
	// shared counter line.
	probe := engineKey{arch: canon, ver: ver, mode: mode, code: unsafeString(code)}
	ent, hit := e.cache.Get(probe)
	if !hit {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := engineKey{arch: canon, ver: ver, mode: mode, code: string(code)}
		ent, _ = e.cache.GetOrAdd(key,
			func() *engineEntry { return &engineEntry{code: key.code, eng: e, ver: ver} })
	}
	return ent, nil
}

// recordEntrySize registers a cached entry's size estimate with its cache
// shard, enforcing the byte budget: once when the entry is computed, and
// again when its prediction's encoding is published.
func (e *Engine) recordEntrySize(ent *engineEntry, canon string, ver uint64, mode Mode) {
	e.cache.SetSize(engineKey{arch: canon, ver: ver, mode: mode, code: ent.code}, entrySizeBytes(ent))
}

// unsafeString views b as a string without copying. The result aliases b
// and must not be retained or used after b may be mutated.
func unsafeString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Analyze is the entrypoint of the public API: one typed Request in, one
// typed Analysis out. A single cheap bound computation (or a single cache
// entry resolution, when warm) yields the prediction, the ordered
// per-component breakdown, and — as req.Detail asks for them — the sorted
// counterfactual speedups and the rendered bottleneck report, so callers
// that only want a number never pay for interpretation.
//
// Request validation is uniform: an empty or oversized Code, an invalid
// Mode or Detail, an unknown microarchitecture, or undecodable block bytes
// all return errors matching ErrBadRequest (with the same message text as
// the historical entry points).
//
// ctx is observed between the cache probe and the computation: a cancelled
// request is still served from a warm entry (it costs nothing), but never
// starts a computation. A nil ctx is treated as context.Background().
//
// The returned Analysis is memoized and shared with other callers; treat it
// (and everything it references) as read-only.
func (e *Engine) Analyze(ctx context.Context, req Request) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.analyze(ctx, &req, nil, 1)
}

// AnalyzeBatch analyzes every request, fanning the work across the engine's
// worker pool. Result ordering is deterministic: out[i] always corresponds
// to reqs[i], regardless of worker scheduling. Per-request failures are
// reported in the corresponding AnalysisResult; they do not affect other
// requests.
//
// Cancellation aborts unstarted work: once ctx is done, every item not yet
// begun completes with ctx's error instead of computing, and items already
// past the cache probe finish normally — so a cancelled batch still returns
// one deterministic result per request.
func (e *Engine) AnalyzeBatch(ctx context.Context, reqs []Request) []AnalysisResult {
	return e.AnalyzeBatchN(ctx, reqs, 0)
}

// AnalyzeBatchN is AnalyzeBatch with an explicit concurrency bound: at most
// workers requests are computed at once. Values <= 0 or above the engine's
// configured pool size select the pool size — callers (e.g. a server
// answering many independent batch requests) can bound an individual
// batch's parallelism but never exceed the engine's.
//
// AnalyzeBatchN collects what AnalyzeEach yields; every result it returns
// is durable. Misses and private analyses are computed against each
// worker's analysis scratch context, with their payloads carved from
// per-worker slabs, so allocation happens only on misses, amortized per
// chunk.
//
// Requests may mix arches, modes, details and variants (Request.Variant).
// A miss reuses what its inputs leave alone from the worker's previous
// miss: a block built from the same bytes keeps its decode and rendered
// instruction text, and its descriptors too when the descriptor fields of
// the two configs agree; the ports, predecoder and precedence bounds are
// kept while the block's decode or descriptor generation and the
// component's own config fields are unchanged. Ordering the requests so
// that every analysis of one block comes back to back lets a batch decode,
// render and bound each block once for all the variants that leave those
// inputs alone.
func (e *Engine) AnalyzeBatchN(ctx context.Context, reqs []Request, workers int) []AnalysisResult {
	if ctx == nil {
		return e.AnalyzeBatchN(context.Background(), reqs, workers)
	}
	out := make([]AnalysisResult, len(reqs))
	e.each(len(reqs), workers, func(sc *workerScratch, i, left int) {
		a, err := e.batchItem(ctx, &reqs[i], sc, left)
		out[i] = AnalysisResult{Analysis: a, Err: err}
	})
	return out
}

// AnalyzeVariantBatchN is AnalyzeBatchN with Request.Variant set to v on
// every request (reqs itself is not modified): each block is analyzed
// uncached against the ephemeral variant, and Request.Arch is ignored.
func (e *Engine) AnalyzeVariantBatchN(ctx context.Context, v *Variant, reqs []Request, workers int) []AnalysisResult {
	if v == nil {
		out := make([]AnalysisResult, len(reqs))
		err := badRequestf("facile: nil variant")
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	vreqs := make([]Request, len(reqs))
	for i := range reqs {
		vreqs[i] = reqs[i]
		vreqs[i].Variant = v
	}
	return e.AnalyzeBatchN(ctx, vreqs, workers)
}

// AnalyzeEach analyzes every request as AnalyzeBatchN does, but hands each
// result to yield instead of collecting them: yield(i, a, err) is called
// exactly once for each index i of reqs, with a nil a when err is non-nil.
// Calls come from the worker that computed the result, so with more than
// one worker they run concurrently and in no set order; AnalyzeEach
// returns after the last one. Every analysis it yields is durable, as
// AnalyzeBatchN's are: the memoized one, or a private one carved from the
// worker's durable slabs.
//
// Cancellation behaves as in AnalyzeBatch: once ctx is done, every item not
// yet begun is yielded with ctx's error.
func (e *Engine) AnalyzeEach(ctx context.Context, reqs []Request, workers int, yield func(i int, a *Analysis, err error)) {
	if ctx == nil {
		e.AnalyzeEach(context.Background(), reqs, workers, yield)
		return
	}
	e.each(len(reqs), workers, func(sc *workerScratch, i, left int) {
		a, err := e.batchItem(ctx, &reqs[i], sc, left)
		yield(i, a, err)
	})
}

// batchItem is one request of a batch: ctx's error once ctx is done, so a
// cancelled batch stops computing while every index still gets a result,
// else the per-request path.
func (e *Engine) batchItem(ctx context.Context, req *Request, sc *workerScratch, left int) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.analyze(ctx, req, sc, left)
}

// each is the one worker loop behind every batch and every sweep: workers
// claim contiguous chunks of the indices [0, n) off one counter and run
// item(sc, i, left) for each index i of a chunk, on a scratch each holds
// for the whole call; left is how many items of the chunk, i included, are
// still to run.
func (e *Engine) each(n, workers int, item func(sc *workerScratch, i, left int)) {
	if workers <= 0 || workers > e.workers {
		workers = e.workers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var one atomic.Int64 // not next, which the goroutines move to the heap
		e.work(n, n, &one, item)
		return
	}
	size := chunkLen(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(n, size, &next, item)
		}()
	}
	wg.Wait()
}

// work is one worker of each: on a scratch held for the whole call, it
// runs the chunks of size items it claims off next until none is left.
func (e *Engine) work(n, size int, next *atomic.Int64, item func(sc *workerScratch, i, left int)) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	for {
		lo := int(next.Add(1)-1) * size
		if lo >= n {
			return
		}
		hi := min(lo+size, n)
		for i := lo; i < hi; i++ {
			item(sc, i, hi-i)
		}
	}
}

// maxChunkLen caps one chunk's share of a batch so workers rebalance on
// skewed per-block cost (a run of misses next to a run of hits).
const maxChunkLen = 256

// chunkLen sizes the chunks the batch indices [0, n) are claimed in for the
// worker count: about four chunks per worker, at most maxChunkLen items.
func chunkLen(n, workers int) int {
	target := (n + 4*workers - 1) / (4 * workers)
	return min(max(target, 1), maxChunkLen)
}

// workerScratch is a worker's working state, pooled across misses, batch
// calls and sweeps: the block a miss is built into, the analysis scratch
// context (together the kernel.Scratch a sweep's items get), and the
// result slabs. Its arrays grow to the largest block it has served and are
// refilled in place.
//
// keep holds the results' payloads: cached entries', and private
// analyses' together with the analyses themselves. Its slabs are sized for
// the blocks left in the worker's chunk and dropped when the scratch goes
// back to the pool, so what a call's results share stays within that
// call. putScratch drops the block's references to the request before the
// scratch goes back to the pool.
type workerScratch struct {
	kernel.Scratch
	pred core.Prediction
	keep resultSlabs
	// private counts the private analyses computed since the scratch was
	// drawn; putScratch adds them to the engine's count.
	private uint64
}

// resultSlabs are the slabs analysis payloads are carved from: prediction
// payloads, bound breakdowns, name lists, speedup lists and, for private
// analyses, the Analysis itself. text is the buffer instruction texts are
// rendered into, and insts the Instructions last rendered from it, for a
// block of decode generation instsGen: a later analysis of a block with
// that decode generation shares them (see publicPrediction). The slabs
// never hand out memory twice, and their strings are copies of text.
type resultSlabs struct {
	ints     core.Slab[int]
	bounds   core.Slab[ComponentBound]
	strs     core.Slab[string]
	sps      core.Slab[Speedup]
	anas     core.Slab[Analysis]
	text     []byte
	insts    []string
	instsGen uint64
}

// blocksLeft sizes the slabs' fresh backing arrays for the n blocks, the
// current one included, left in the worker's chunk.
func (rs *resultSlabs) blocksLeft(n int) {
	rs.ints.Blocks, rs.bounds.Blocks, rs.strs.Blocks = n, n, n
	rs.sps.Blocks, rs.anas.Blocks = n, n
}

// drop lets go of durable slabs' backing arrays and shared instruction
// texts, which the results carved from them keep, and keeps the render
// buffer.
func (rs *resultSlabs) drop() {
	*rs = resultSlabs{text: rs.text[:0]}
}

// predict builds code into sc's block, runs one bound computation for mode
// and sets a to its analysis at DetailPrediction, with the public
// prediction and the bound breakdown carved from rs. It returns the bound
// vector the other details are derived from, valid until sc's next
// prediction; a decode failure is classified as a bad request.
func (sc *workerScratch) predict(a *Analysis, cfg *uarch.Config, code []byte, mode Mode, rs *resultSlabs) (*core.Bounds, error) {
	block := &sc.Block
	if err := bb.BuildInto(block, cfg, code); err != nil {
		// Decode failures are about the request's bytes: classify them
		// into the uniform bad-request vocabulary (text unchanged).
		return nil, asBadRequest(err)
	}
	p := &sc.pred
	*p = sc.Ana.PredictSlab(block, coreMode(mode), core.Options{}, &rs.ints)
	publicPrediction(&a.Prediction, p, block, cfg.Name, mode, rs)
	a.Bounds = componentBounds(p, rs)
	a.Speedups, a.ReportText = nil, ""
	return &p.Bounds, nil
}

// getScratch draws a worker scratch: the engine's spare if it holds one,
// else one from the pool.
func (e *Engine) getScratch() *workerScratch {
	if sc := e.spare.Swap(nil); sc != nil {
		return sc
	}
	return e.scratch.Get().(*workerScratch)
}

// putScratch returns sc to the engine's spare, or to its pool when the
// spare is taken or sc too large. Its block's instructions subslice the
// last request's code, so they are released first: neither may pin a
// caller's buffer or a server's request memory. The slabs are dropped.
func (e *Engine) putScratch(sc *workerScratch) {
	if sc.private > 0 {
		e.uncached.Add(sc.private)
		sc.private = 0
	}
	sc.Block.Release()
	sc.keep.drop()
	sc.pred = core.Prediction{}
	if cap(sc.Block.Insts) > maxSpareInsts || !e.spare.CompareAndSwap(nil, sc) {
		e.scratch.Put(sc)
	}
}

// maxSpareInsts bounds the blocks a spare scratch may have grown to serve
// (about 256 KiB of code). A larger scratch goes to the pool, which a
// collection empties, so one huge request does not pin its memory for the
// engine's lifetime.
const maxSpareInsts = 1 << 16

// Simulate runs the reference cycle-accurate pipeline simulator on the
// block. It validates the request as Analyze does, then builds its own block
// with bb.Build and simulates it; it does not touch the analysis cache, and
// its result is not memoized, since the simulation costs far more than the
// build.
func (e *Engine) Simulate(code []byte, arch string, mode Mode) (float64, error) {
	cfg, _, err := e.prepare(nil, arch, mode, code)
	if err != nil {
		return 0, err
	}
	block, err := bb.Build(cfg, code)
	if err != nil {
		return 0, asBadRequest(err)
	}
	return simulateBlock(block, mode), nil
}

// EngineStats is a snapshot of the engine's cache accounting, aggregated
// across all cache shards.
type EngineStats struct {
	// Hits and Misses count cache entry resolutions by outcome; one Analyze
	// performs exactly one resolution regardless of Detail. A lookup that
	// joins a computation already in flight counts as a hit. Misses also
	// counts private analyses (variants, and every analysis when
	// memoization is disabled), a batch's once its worker finishes.
	Hits, Misses uint64
	// Evictions counts entries displaced from the bounded LRU — by the
	// entry capacity or by EngineConfig.MaxCacheBytes.
	Evictions uint64
	// Entries is the current number of cached analyses.
	Entries int
	// SizeBytes is the accounted size of the cached analyses (the sum of
	// per-entry estimates; see EngineConfig.MaxCacheBytes).
	SizeBytes int64
	// Shards is the prediction cache's shard count (0 when memoization is
	// disabled).
	Shards int
}

// Stats returns a snapshot of the engine's cache accounting. Counters are
// maintained per shard (atomically, updated under each shard's lock) and
// summed here, so concurrent Analyze traffic never contends on a shared
// stats line and the totals are race-free.
func (e *Engine) Stats() EngineStats {
	var st EngineStats
	if e.cache != nil {
		cs := e.cache.Stats()
		st = EngineStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evicted,
			Entries:   cs.Entries,
			SizeBytes: cs.Bytes,
			Shards:    e.cache.Shards(),
		}
	}
	st.Misses += e.uncached.Load()
	return st
}

func init() {
	kernel.Of = func(eng any) kernel.Engine { return kernelEngine{eng.(*Engine)} }
}

// kernelEngine is the view of an Engine that internal/kernel lends the
// module's other packages.
type kernelEngine struct{ e *Engine }

func (k kernelEngine) Each(n, workers int, item func(sc *kernel.Scratch, i int)) {
	k.e.each(n, workers, func(sc *workerScratch, i, _ int) { item(&sc.Scratch, i) })
}

func (k kernelEngine) Resolve(arch string) (*uarch.Config, error) {
	cfg, _, err := k.e.resolve(arch)
	return cfg, err
}

func (k kernelEngine) CountUncached(n uint64) { k.e.uncached.Add(n) }
