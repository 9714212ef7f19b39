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
	// beyond the budget are evicted least-recently-used first. The same
	// per-entry sizes weight snapshot-export byte budgets
	// (Engine.ExportSnapshot). Zero or negative means no byte budget.
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
//     scratch's block (see missScratch) with bb.BuildInto and computes the
//     full bound vector in the scratch's analysis context, both warm after
//     the first misses, and its result payloads are carved from slabs — a
//     batch worker's, shared across its chunk, or for a single request
//     fresh ones sized for one block;
//   - AnalyzeBatch fans independent requests across a worker pool while
//     keeping result order deterministic, and observes its context between
//     items so a cancelled batch stops computing.
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

	// scratch pools *missScratch values across cache misses. spare holds
	// one more, tried first: a collection empties the pool but not spare,
	// so the first miss after it still finds a warm scratch.
	scratch sync.Pool
	spare   atomic.Pointer[missScratch]

	// uncached counts resolutions when memoization is disabled (cache ==
	// nil); cached resolutions are counted by per-shard cache counters and
	// summed in Stats.
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
// sizes are deterministic estimates for budgeting and snapshot weighting,
// not measured heap bytes.
const entryBaseBytes = 512

// entrySizeBytes estimates an entry's resident footprint once its analysis
// is computed: the durable code copy (shared by the cache key), the bound
// breakdown and the prediction's per-instruction payloads. Error entries
// carry only the base and the code.
func entrySizeBytes(ent *engineEntry) int {
	n := entryBaseBytes + len(ent.code)
	if ent.err != nil {
		return n
	}
	a := &ent.ana[DetailPrediction]
	n += 32 * len(a.Bounds)
	n += 8 * (len(a.Prediction.CriticalChain) + len(a.Prediction.ContendedInstrs))
	for _, s := range a.Prediction.Instructions {
		n += 16 + len(s)
	}
	for _, s := range a.Prediction.Bottlenecks {
		n += 16 + len(s)
	}
	return n
}

// engineEntry is a single-flight cache slot: the first caller computes the
// prediction under once; concurrent callers for the same key block
// on once and then share the result. Decode/lookup errors are cached too, so
// repeatedly querying an undecodable block stays cheap. The entry holds its
// Analysis at every Detail inline: fill sets the prediction-level value, and
// the views once derives the other two from it — the sorted speedups and the
// rendered report are a pure recombination and rendering of the cached
// bound vector, never a re-run of the component predictors. Nothing in an
// entry aliases caller memory, so callers may reuse their Code buffers as
// soon as a call returns.
type engineEntry struct {
	once sync.Once
	// code is the entry's durable copy of the block bytes (the cache key's
	// code string); empty on private (uncached) entries.
	code string
	// bounds is the bound vector the speedup view recombines.
	bounds core.Bounds
	err    error

	// size is the entry's accounted footprint estimate in bytes, computed
	// with the analysis (inside once) and registered with the cache shard
	// by the computing caller; see entrySizeBytes.
	size int

	// ana[d] is the Analysis served at Detail d. The three values share
	// their prediction and bound slices.
	ana   [numDetails]Analysis
	views sync.Once
}

// analysis returns the entry's Analysis for one detail level, deriving the
// speedup and report views on first use above DetailPrediction. A warm
// Analyze returns a pointer into the entry without allocating.
func (ent *engineEntry) analysis(d Detail) *Analysis {
	if d > DetailPrediction {
		ent.views.Do(ent.fillViews)
	}
	return &ent.ana[d]
}

// fillViews derives the DetailSpeedups and DetailFull analyses from the
// prediction-level one: one speedup recombination, one report rendering.
func (ent *engineEntry) fillViews() {
	a := ent.ana[DetailPrediction]
	a.Speedups = speedupList(&ent.bounds, coreMode(a.Prediction.Mode))
	ent.ana[DetailSpeedups] = a
	a.ReportText = renderReport(&a)
	ent.ana[DetailFull] = a
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
	e.scratch.New = func() any { return new(missScratch) }
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
// arch name is client input.
func (e *Engine) resolve(arch string) (*uarch.Config, uint64, error) {
	uc, ver, err := e.reg.Resolve(arch)
	if err != nil {
		return nil, 0, asBadRequest(err)
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
// boundary checks, then one cache resolution — a private entry for a
// variant — then the fill on a miss. sc and left are the batch worker's
// scratch and the blocks left in its chunk; a nil sc is a single request's.
func (e *Engine) analyze(ctx context.Context, req *Request, sc *batchScratch, left int) (*Analysis, error) {
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
	var ent *engineEntry
	if variant != nil {
		ent, err = e.privateEntry(ctx)
	} else {
		ent, err = e.resolveEntry(ctx, req.Code, cfg.Name, ver, req.Mode)
	}
	if err != nil {
		return nil, err
	}
	e.fill(ent, cfg, ver, req.Code, req.Mode, sc, left)
	if ent.err != nil {
		return nil, ent.err
	}
	return ent.analysis(req.Detail), nil
}

// fill computes ent on its first use: the one miss path, reached only
// through analyze. It builds the block from the request's bytes into sc's
// block, runs one PredictSlab, and carves the public
// prediction and the bound breakdown from sc's slabs, sized for the left
// blocks (this one included) still to be filled from them. A nil sc is a
// single request's miss: the scratch — a pooled missScratch and fresh
// slabs sized for one block — is drawn inside the once, so a warm call
// allocates nothing. A freshly computed entry registers its size with its
// cache shard.
func (e *Engine) fill(ent *engineEntry, cfg *uarch.Config, ver uint64, code []byte, mode Mode, sc *batchScratch, left int) {
	var (
		computed bool
		own      batchScratch
	)
	ent.once.Do(func() {
		computed = true
		defer func() { ent.size = entrySizeBytes(ent) }()
		if sc == nil {
			own.missScratch = e.getScratch()
			defer e.putScratch(own.missScratch)
			sc = &own
		}
		block := &sc.block
		if err := bb.BuildInto(block, cfg, code); err != nil {
			// Decode failures are about the request's bytes: classify them
			// into the uniform bad-request vocabulary (text unchanged).
			ent.err = asBadRequest(err)
			return
		}
		sc.blocksLeft(left)
		p := sc.ana.PredictSlab(block, coreMode(mode), core.Options{}, &sc.ints)
		ent.bounds = p.Bounds
		a := &ent.ana[DetailPrediction]
		a.Prediction = publicPrediction(&p, block, cfg.Name, mode, sc)
		a.Bounds = componentBounds(&p, sc)
	})
	if computed {
		e.recordEntrySize(ent, cfg.Name, ver, mode)
	}
}

// resolveEntry performs the one cache resolution of a request: a zero-copy
// probe first, then — on a miss — a GetOrAdd under a durable key copy. The
// context is observed between the probe and the miss: a cancelled caller
// never creates (or pollutes stats with) a miss, while a warm hit is served
// regardless — it costs nothing.
func (e *Engine) resolveEntry(ctx context.Context, code []byte, canon string, ver uint64, mode Mode) (*engineEntry, error) {
	if e.cache == nil {
		// Memoization disabled: every call recomputes on a private entry.
		return e.privateEntry(ctx)
	}
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
			func() *engineEntry { return &engineEntry{code: key.code} })
	}
	return ent, nil
}

// privateEntry returns a fresh uncached entry, counted as a miss, unless
// ctx is already done.
func (e *Engine) privateEntry(ctx context.Context) (*engineEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.uncached.Add(1)
	return &engineEntry{}, nil
}

// recordEntrySize registers a freshly computed cached entry's size estimate
// with its cache shard, enforcing the byte budget. Private (uncached)
// entries have no shard to account to.
func (e *Engine) recordEntrySize(ent *engineEntry, canon string, ver uint64, mode Mode) {
	if e.cache == nil || ent.code == "" {
		return
	}
	e.cache.SetSize(engineKey{arch: canon, ver: ver, mode: mode, code: ent.code}, ent.size)
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
// Internally the batch runs on a chunked kernel rather than per-index
// dispatch: each worker claims a contiguous chunk of indices and runs every
// item through Analyze's per-request path, computing the misses against one
// analysis scratch context with result payloads carved from per-worker
// slabs — allocation happens only on cache misses, amortized per chunk.
//
// Requests may mix arches, modes and variants (Request.Variant). A miss
// reuses what is byte-identical to the worker's previous miss: a block
// built from the same bytes keeps its decoded instructions, effects and
// instruction text, and a precedence solve whose input equals the last one
// keeps its solution. Ordering the requests so that every analysis of one
// block comes back to back — as a design-space sweep does — lets a batch
// decode, render and solve each block once for all of them.
func (e *Engine) AnalyzeBatchN(ctx context.Context, reqs []Request, workers int) []AnalysisResult {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(reqs)
	out := make([]AnalysisResult, n)
	if n == 0 {
		return out
	}
	if workers <= 0 || workers > e.workers {
		workers = e.workers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := batchScratch{missScratch: e.getScratch()}
		e.processChunk(ctx, reqs, out, batchChunk{0, n}, &sc)
		e.putScratch(sc.missScratch)
		return out
	}
	chunks := splitChunks(n, workers)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := batchScratch{missScratch: e.getScratch()}
			defer e.putScratch(sc.missScratch)
			for {
				ci := int(next.Add(1))
				if ci >= len(chunks) {
					return
				}
				e.processChunk(ctx, reqs, out, chunks[ci], &sc)
			}
		}()
	}
	wg.Wait()
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

// batchChunk is a half-open run [lo, hi) of batch indices: the scheduling
// unit of the chunked batch kernel.
type batchChunk struct{ lo, hi int }

// missScratch is the working state of a cache miss, pooled across misses:
// the analysis scratch context, the block the miss is built into, and the
// instruction-text render buffer. Its arrays grow to the largest block it
// has served and are refilled in place, so a miss on a warm scratch
// allocates only the results its entry keeps. Nothing in it outlives the
// miss; putScratch drops the block's references to the request before the
// scratch goes back to the pool.
type missScratch struct {
	ana   core.Analysis
	block bb.Block
	text  []byte
}

// getScratch draws a miss scratch: the engine's spare if it holds one, else
// one from the pool.
func (e *Engine) getScratch() *missScratch {
	if ms := e.spare.Swap(nil); ms != nil {
		return ms
	}
	return e.scratch.Get().(*missScratch)
}

// putScratch returns ms to the engine's spare, or to its pool when the
// spare is taken or ms too large. Its block's instructions subslice the
// last request's code, so they are released first: neither may pin a
// caller's buffer or a server's request memory.
func (e *Engine) putScratch(ms *missScratch) {
	ms.block.Release()
	if cap(ms.block.Insts) > maxSpareInsts || !e.spare.CompareAndSwap(nil, ms) {
		e.scratch.Put(ms)
	}
}

// maxSpareInsts bounds the blocks a spare scratch may have grown to serve
// (about 256 KiB of code). A larger scratch goes to the pool, which a
// collection empties, so one huge request does not pin its memory for the
// engine's lifetime.
const maxSpareInsts = 1 << 16

// batchScratch is the state a cache miss is filled from: a miss scratch
// drawn from the engine pool, and slabs that prediction payloads, bound
// breakdowns and name lists are carved from. A batch worker holds one
// across its chunks, drawn once per batch (not once per block): a chunk of
// cache hits touches none of it, and a chunk of misses allocates only when
// a slab drains. A single request's miss fills from one of its own (see
// Engine.fill).
type batchScratch struct {
	*missScratch
	ints   core.Slab[int]
	bounds core.Slab[ComponentBound]
	strs   core.Slab[string]
	// insts is the Instructions of the last prediction filled from this
	// scratch, shared by the next one when its block keeps the decode (see
	// publicPrediction). The miss scratch's block is released before it
	// serves another batchScratch, so a kept decode is always this one's.
	insts []string
}

// blocksLeft sizes the worker's fresh slabs for the n blocks, the current
// one included, left in its chunk.
func (sc *batchScratch) blocksLeft(n int) {
	sc.ints.Blocks, sc.bounds.Blocks, sc.strs.Blocks = n, n, n
}

// maxChunkLen caps one chunk's share of a batch so workers rebalance on
// skewed per-block cost (a run of misses next to a run of hits).
const maxChunkLen = 256

// splitChunks divides the batch indices [0, n) into contiguous chunks sized
// for the worker count: about four chunks per worker, capped at
// maxChunkLen.
func splitChunks(n, workers int) []batchChunk {
	target := (n + 4*workers - 1) / (4 * workers)
	target = min(max(target, 1), maxChunkLen)
	chunks := make([]batchChunk, 0, (n+target-1)/target)
	for lo := 0; lo < n; lo += target {
		chunks = append(chunks, batchChunk{lo, min(lo+target, n)})
	}
	return chunks
}

// processChunk runs one chunk of a batch through the per-request path,
// computing misses against the worker's shared scratch. The context is
// observed per item, so a cancelled batch stops computing while keeping one
// deterministic result per request.
func (e *Engine) processChunk(ctx context.Context, reqs []Request, out []AnalysisResult, c batchChunk, sc *batchScratch) {
	for i := c.lo; i < c.hi; i++ {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		out[i].Analysis, out[i].Err = e.analyze(ctx, &reqs[i], sc, c.hi-i)
	}
}

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
	// joins a computation already in flight counts as a hit.
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
