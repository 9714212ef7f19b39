package facile_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"facile"
	"facile/internal/bhive"
	"facile/internal/eval"
)

func newTestEngine(t *testing.T, cfg facile.EngineConfig) *facile.Engine {
	t.Helper()
	e, err := facile.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineMatchesPredict(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{})
	codes := [][]byte{
		decode(t, "4801d8480fafc3"),
		decode(t, "480fafc348ffc975f7"),
		decode(t, "4803074883c70848ffc975f2"),
	}
	for _, arch := range facile.Archs() {
		for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
			for _, code := range codes {
				want, err := predict(facile.DefaultEngine(), code, arch, mode)
				if err != nil {
					t.Fatal(err)
				}
				// Query twice: the second answer comes from the cache.
				for pass := 0; pass < 2; pass++ {
					got, err := predict(e, code, arch, mode)
					if err != nil {
						t.Fatal(err)
					}
					if got.CyclesPerIteration != want.CyclesPerIteration {
						t.Fatalf("%s/%v pass %d: engine %v, Predict %v",
							arch, mode, pass, got.CyclesPerIteration, want.CyclesPerIteration)
					}
					if len(got.Bottlenecks) == 0 || got.Bottlenecks[0] != want.Bottlenecks[0] {
						t.Fatalf("%s/%v: bottleneck mismatch: %v vs %v",
							arch, mode, got.Bottlenecks, want.Bottlenecks)
					}
				}
			}
		}
	}
}

func TestEngineCacheAccounting(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	a := decode(t, "4801d8")
	b := decode(t, "480fafc3")

	if _, err := predict(e, a, "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	if _, err := predict(e, a, "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	if _, err := predict(e, b, "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	// Same code, different mode: a distinct cache entry.
	if _, err := predict(e, a, "SKL", facile.Unroll); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 misses / 1 hit", st)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
}

func TestEngineCacheEviction(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: 2})
	codes := [][]byte{
		decode(t, "4801d8"),
		decode(t, "480fafc3"),
		decode(t, "48ffc9"),
	}
	for _, code := range codes {
		if _, err := predict(e, code, "SKL", facile.Loop); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted (least recently used) entry is recomputed on demand.
	if _, err := predict(e, codes[0], "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (re-miss after eviction)", st.Misses)
	}
}

func TestEngineErrorsCached(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	bad := []byte{0xD9, 0xC0} // x87, undecodable
	for i := 0; i < 2; i++ {
		if _, err := predict(e, bad, "SKL", facile.Loop); err == nil {
			t.Fatal("undecodable block must error")
		}
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("error entries must be cached: %+v", st)
	}
}

func TestEngineArchRestriction(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL", "RKL"}})
	if got := e.Archs(); len(got) != 2 || got[0] != "SKL" || got[1] != "RKL" {
		t.Fatalf("Archs() = %v", got)
	}
	code := decode(t, "4801d8")
	// SNB exists but is outside this engine's configured set.
	if _, err := predict(e, code, "SNB", facile.Loop); err == nil {
		t.Fatal("unconfigured arch must error")
	}
	// Entirely unknown arch names error too.
	if _, err := predict(e, code, "???", facile.Loop); err == nil {
		t.Fatal("unknown arch must error")
	}
	if _, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"NOPE"}}); err == nil {
		t.Fatal("NewEngine with unknown arch must error")
	}
}

func TestEnginePredictBatchOrderingAndErrors(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{})
	corpus := bhive.Generate(eval.DefaultSeed, 40)
	var reqs []blockReq
	for i, bm := range corpus {
		arch := facile.Archs()[i%len(facile.Archs())]
		reqs = append(reqs, blockReq{Code: bm.LoopCode, Arch: arch, Mode: facile.Loop})
	}
	// Interleave failures: empty code and an unknown arch.
	reqs = append(reqs, blockReq{Code: nil, Arch: "SKL", Mode: facile.Loop})
	reqs = append(reqs, blockReq{Code: decode(t, "90"), Arch: "???", Mode: facile.Loop})

	results := predictBatch(e, reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results[:len(corpus)] {
		want, err := predict(facile.DefaultEngine(), reqs[i].Code, reqs[i].Arch, reqs[i].Mode)
		if (err == nil) != (res.Err == nil) {
			t.Fatalf("req %d: error mismatch: %v vs %v", i, err, res.Err)
		}
		if err == nil && res.Prediction.CyclesPerIteration != want.CyclesPerIteration {
			t.Fatalf("req %d: %v, want %v", i, res.Prediction.CyclesPerIteration, want.CyclesPerIteration)
		}
	}
	if results[len(reqs)-2].Err == nil {
		t.Fatal("empty block request must fail")
	}
	if results[len(reqs)-1].Err == nil {
		t.Fatal("unknown arch request must fail")
	}
}

// TestEngineConcurrent hammers one engine from many goroutines with
// overlapping keys; run with -race. Every result must equal the one-shot
// prediction for its request.
func TestEngineConcurrent(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL", "RKL"}, CacheSize: 16})
	corpus := bhive.Generate(eval.DefaultSeed, 30)
	want := make(map[int]float64)
	var reqs []blockReq
	for i, bm := range corpus {
		arch := "SKL"
		if i%2 == 1 {
			arch = "RKL"
		}
		req := blockReq{Code: bm.LoopCode, Arch: arch, Mode: facile.Loop}
		p, err := predict(facile.DefaultEngine(), req.Code, req.Arch, req.Mode)
		if err != nil {
			continue
		}
		want[len(reqs)] = p.CyclesPerIteration
		reqs = append(reqs, req)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i, res := range predictBatch(e, reqs) {
					if res.Err != nil {
						t.Errorf("req %d: %v", i, res.Err)
						return
					}
					if res.Prediction.CyclesPerIteration != want[i] {
						t.Errorf("req %d: got %v, want %v", i,
							res.Prediction.CyclesPerIteration, want[i])
						return
					}
				}
				// The workers also race on the first use of each entry's
				// speedup and report views.
				for i, r := range reqs {
					d := facile.Detail(1 + (w+i)%2)
					ana, err := e.Analyze(context.Background(), facile.Request{Code: r.Code, Arch: r.Arch, Mode: r.Mode, Detail: d})
					if err != nil || len(ana.Speedups) == 0 || (ana.ReportText != "") != (d == facile.DetailFull) {
						t.Errorf("req %d at %v: %v, %+v", i, d, err, ana)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestEngineSpeedupsExplainSimulate(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	code := decode(t, "480fafc348ffc975f7")

	wantSp, err := speedupMap(facile.DefaultEngine(), code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	gotSp, err := speedupMap(e, code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSp) != len(wantSp) {
		t.Fatalf("speedups: %v vs %v", gotSp, wantSp)
	}
	for k, v := range wantSp {
		if gotSp[k] != v {
			t.Fatalf("speedup[%s] = %v, want %v", k, gotSp[k], v)
		}
	}

	wantRep, err := explainText(facile.DefaultEngine(), code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := explainText(e, code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if gotRep != wantRep {
		t.Fatalf("engine report differs from one-shot report:\n%s\nvs\n%s", gotRep, wantRep)
	}

	wantSim, err := facile.DefaultEngine().Simulate(code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	gotSim, err := e.Simulate(code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if gotSim != wantSim {
		t.Fatalf("engine sim %v, one-shot sim %v", gotSim, wantSim)
	}
}

// TestSimulateBypassesCache: Simulate validates its request as Analyze does
// and then builds and simulates its own block, so it neither probes nor
// fills the analysis cache, on a caching engine or an uncached one. Its
// values and error texts are pinned for the valid inputs and for every
// boundary rejection.
func TestSimulateBypassesCache(t *testing.T) {
	cases := []struct {
		name, code, arch string
		mode             facile.Mode
		want             float64
		wantErr          string
	}{
		{"empty", "", "SKL", facile.Loop, 0, "facile: empty basic block"},
		{"oversized", "4801d84801d84801d84801d84801d84801d8", "SKL", facile.Loop, 0,
			"facile: basic block is 18 bytes; the limit is 16 (EngineConfig.MaxCodeBytes)"},
		{"invalid mode", "4801d8", "SKL", facile.Mode(7), 0, "facile: invalid mode 7 (want Unroll or Loop)"},
		{"unknown arch", "4801d8", "NOPE", facile.Loop, 0,
			`uarch: unknown microarchitecture "NOPE" (one of RKL, TGL, ICL, CLX, SKL, BDW, HSW, IVB, SNB)`},
		{"undecodable", "d9c0", "SKL", facile.Loop, 0, "x86: unsupported encoding at offset 1: one-byte opcode"},
		{"add imul", "4801d8480fafc3", "SKL", facile.Loop, 4, ""},
		{"counted loop", "480307 4883c708 48ffc9 75f2", "ICL", facile.Loop, 1, ""},
		{"imul chain", "480fafc3480fafcb480fafd3", "skl", facile.Unroll, 3, ""},
	}
	for _, cacheSize := range []int{0, -1} {
		e := newTestEngine(t, facile.EngineConfig{
			Registry: facile.NewArchRegistry(), CacheSize: cacheSize, MaxCodeBytes: 16,
		})
		for _, tc := range cases {
			before := e.Stats()
			got, err := e.Simulate(decode(t, tc.code), tc.arch, tc.mode)
			if after := e.Stats(); after != before {
				t.Errorf("CacheSize %d, %s: Simulate moved the engine stats from %+v to %+v",
					cacheSize, tc.name, before, after)
			}
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr || !errors.Is(err, facile.ErrBadRequest) {
					t.Errorf("CacheSize %d, %s: err %v, want bad request %q", cacheSize, tc.name, err, tc.wantErr)
				}
				continue
			}
			if err != nil || got != tc.want {
				t.Errorf("CacheSize %d, %s: Simulate = %v, %v; want %v", cacheSize, tc.name, got, err, tc.want)
			}
		}
	}
}

func TestEngineErrorPaths(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	bad := []byte{0xD9, 0xC0}

	if _, err := speedupMap(e, nil, "SKL", facile.Loop); err == nil {
		t.Fatal("Engine.Speedups on empty input must error")
	}
	if _, err := speedupMap(e, bad, "SKL", facile.Loop); err == nil {
		t.Fatal("Engine.Speedups on undecodable input must error")
	}
	if _, err := explainText(e, bad, "SKL", facile.Loop); err == nil {
		t.Fatal("Engine.Explain on undecodable input must error")
	}
	if _, err := e.Simulate(nil, "SKL", facile.Loop); err == nil {
		t.Fatal("Engine.Simulate on empty input must error")
	}

	// The one-shot wrappers share the same error behavior.
	if _, err := speedupMap(facile.DefaultEngine(), nil, "SKL", facile.Loop); err == nil {
		t.Fatal("Speedups on empty input must error")
	}
	if _, err := speedupMap(facile.DefaultEngine(), bad, "SKL", facile.Loop); err == nil {
		t.Fatal("Speedups on undecodable input must error")
	}
	if _, err := facile.Disassemble(nil); err == nil {
		t.Fatal("Disassemble on empty input must error")
	}
	if _, err := facile.Disassemble(bad); err == nil {
		t.Fatal("Disassemble on undecodable input must error")
	}
}

// TestEngineMemoizesSpeedupsAndReports: the speedup list and the rendered
// report are memoized on the shared cached Analysis — a repeated query
// returns the identical objects instead of recomputing them.
func TestEngineMemoizesSpeedupsAndReports(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	code := decode(t, "480fafc348ffc975f7")
	req := facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull}

	a1, err := e.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("warm Analyze rebuilt the Analysis: distinct pointers")
	}
	if len(a1.Speedups) > 0 &&
		reflect.ValueOf(a1.Speedups).Pointer() != reflect.ValueOf(a2.Speedups).Pointer() {
		t.Error("speedup list recomputed on a cache hit: distinct slices returned")
	}
	// Identical backing storage, not merely equal content: the rendering is
	// done once and memoized in the cache entry.
	r1, r2 := a1.ReportText, a2.ReportText
	if unsafe.StringData(r1) != unsafe.StringData(r2) {
		t.Error("report re-rendered on a cache hit: distinct strings returned")
	}

	// The memoized results must match an independent engine's computation.
	e2 := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	wantSp, err := speedupMap(e2, code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	gotSp, err := speedupMap(e, code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSp, wantSp) {
		t.Errorf("memoized speedups %v != independent %v", gotSp, wantSp)
	}
	wantRep, err := explainText(e2, code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != wantRep {
		t.Errorf("memoized report differs from independent engine:\n%s\nvs\n%s", r1, wantRep)
	}
}

// TestEngineInvalidMode: out-of-range Mode values must be rejected at the
// engine boundary, not silently treated as Unroll.
func TestEngineInvalidMode(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	code := decode(t, "4801d8")
	bad := facile.Mode(7)
	if _, err := predict(e, code, "SKL", bad); err == nil {
		t.Error("Analyze must reject Mode(7)")
	}
	if _, err := speedupMap(e, code, "SKL", bad); err == nil {
		t.Error("Analyze at DetailSpeedups must reject Mode(7)")
	}
	if _, err := explainText(e, code, "SKL", bad); err == nil {
		t.Error("Analyze at DetailFull must reject Mode(7)")
	}
	if _, err := e.Simulate(code, "SKL", bad); err == nil {
		t.Error("Engine.Simulate must reject Mode(7)")
	}
	res := predictBatch(e, []blockReq{{Code: code, Arch: "SKL", Mode: bad}})
	if res[0].Err == nil {
		t.Error("AnalyzeBatchN must reject Mode(7)")
	}
	if st := e.Stats(); st.Entries != 0 {
		t.Errorf("invalid-mode requests must not populate the cache: %+v", st)
	}
}

// TestEngineStatsRace hammers Analyze and Stats concurrently at high
// parallelism; run with -race. Per-shard counters must stay exact: after the
// dust settles, hits+misses equals the total number of resolutions, and no
// hit or miss is lost to a data race.
func TestEngineStatsRace(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheShards: 8})
	corpus := bhive.Generate(eval.DefaultSeed, 16)
	var codes [][]byte
	for _, bm := range corpus {
		if _, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop); err != nil {
			continue
		}
		codes = append(codes, bm.LoopCode)
	}
	if len(codes) == 0 {
		t.Fatal("no valid corpus blocks")
	}

	const workers, rounds = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				code := codes[(w*rounds+r)%len(codes)]
				if _, err := predict(e, code, "SKL", facile.Loop); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Interleave reads with writes: Stats must be safe to call
				// while every shard is being updated.
				st := e.Stats()
				if st.Hits+st.Misses == 0 {
					t.Error("Stats lost all counters mid-run")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := e.Stats()
	if got := st.Hits + st.Misses; got != workers*rounds {
		t.Fatalf("hits(%d)+misses(%d) = %d, want exactly %d resolutions",
			st.Hits, st.Misses, got, workers*rounds)
	}
	if st.Misses != uint64(len(codes)) {
		t.Fatalf("misses = %d, want one per distinct block (%d)", st.Misses, len(codes))
	}
	if st.Shards != 8 {
		t.Fatalf("shards = %d, want 8", st.Shards)
	}
}

// TestEngineCacheShards: shard-count configuration is validated and rounded,
// and sharding never changes resolution results or accounting semantics.
func TestEngineCacheShards(t *testing.T) {
	if _, err := facile.NewEngine(facile.EngineConfig{CacheShards: -1}); err == nil {
		t.Fatal("negative CacheShards must be rejected")
	}
	// Non-power-of-two counts round up.
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheShards: 3})
	if st := e.Stats(); st.Shards != 4 {
		t.Fatalf("CacheShards 3 rounded to %d, want 4", st.Shards)
	}
	// The default is resolved from GOMAXPROCS and is a power of two.
	def := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	st := def.Stats()
	if st.Shards == 0 || st.Shards&(st.Shards-1) != 0 {
		t.Fatalf("default shard count %d is not a positive power of two", st.Shards)
	}
	// Accounting matches the single-shard engine exactly.
	single := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheShards: 1})
	for _, e := range []*facile.Engine{e, single} {
		a := decode(t, "4801d8")
		for i := 0; i < 3; i++ {
			if _, err := predict(e, a, "SKL", facile.Loop); err != nil {
				t.Fatal(err)
			}
		}
		if st := e.Stats(); st.Misses != 1 || st.Hits != 2 {
			t.Fatalf("%d-shard stats = %+v, want 1 miss / 2 hits", st.Shards, st)
		}
	}
}

// TestEngineMaxCacheBytes: entries report sizes, Stats exposes the total,
// and a byte budget evicts cold entries while keeping predictions correct.
func TestEngineMaxCacheBytes(t *testing.T) {
	unbounded := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	code := decode(t, "4803074883c70848ffc975f2")
	if _, err := explainText(unbounded, code, "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	if st := unbounded.Stats(); st.SizeBytes <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0 after a cached analysis", st.SizeBytes)
	}

	// A tight budget on a single shard forces byte-budget evictions.
	e := newTestEngine(t, facile.EngineConfig{
		Archs: []string{"SKL"}, CacheShards: 1, MaxCacheBytes: 8192,
	})
	corpus := bhive.Generate(eval.DefaultSeed, 24)
	want := make(map[int]float64)
	var codes [][]byte
	for _, bm := range corpus {
		p, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop)
		if err != nil {
			continue
		}
		want[len(codes)] = p.CyclesPerIteration
		codes = append(codes, bm.LoopCode)
	}
	for round := 0; round < 2; round++ {
		for i, c := range codes {
			p, err := predict(e, c, "SKL", facile.Loop)
			if err != nil {
				t.Fatal(err)
			}
			if p.CyclesPerIteration != want[i] {
				t.Fatalf("block %d round %d: %v, want %v", i, round,
					p.CyclesPerIteration, want[i])
			}
		}
	}
	st := e.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want byte-budget evictions", st)
	}
	if st.SizeBytes > 8192 {
		t.Fatalf("SizeBytes = %d exceeds the 8192-byte budget", st.SizeBytes)
	}
}

// TestEngineBatchFasterThanOneShot is a coarse regression guard for the
// engine's amortization on repeated workloads; BenchmarkEngineVsPredict
// quantifies the speedup properly. The baseline is an uncached engine
// (CacheSize < 0) — the one-shot cost of recomputing every request — since
// warm queries against the default engine come from its cache.
func TestEngineBatchFasterThanOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	corpus := bhive.Generate(eval.DefaultSeed, 50)
	var reqs []blockReq
	for _, bm := range corpus {
		if _, err := predict(facile.DefaultEngine(), bm.LoopCode, "SKL", facile.Loop); err != nil {
			continue
		}
		reqs = append(reqs, blockReq{Code: bm.LoopCode, Arch: "SKL", Mode: facile.Loop})
	}
	if len(reqs) == 0 {
		t.Fatal("no valid corpus blocks")
	}
	distinct := len(reqs)
	for len(reqs) < 1000 {
		reqs = append(reqs, reqs[len(reqs)%distinct])
	}

	uncached := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	start := time.Now()
	for _, r := range reqs {
		if _, err := predict(uncached, r.Code, r.Arch, r.Mode); err != nil {
			t.Fatal(err)
		}
	}
	oneShot := time.Since(start)

	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	start = time.Now()
	for _, res := range predictBatch(e, reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	batched := time.Since(start)

	t.Logf("one-shot %v, engine %v (%.1fx)", oneShot, batched,
		float64(oneShot)/float64(batched))
	// The benchmark shows >5x; assert a conservative 2x here so the test is
	// robust to loaded CI machines and -race overhead.
	if batched*2 > oneShot {
		t.Fatalf("engine batch (%v) not at least 2x faster than one-shot (%v)", batched, oneShot)
	}
}

// TestMissPathParity: Analyze and the batch kernel fill a cache miss the
// same way, whatever the batch shape. On fresh uncached engines, Analyze,
// AnalyzeBatchN(…, 1) and AnalyzeBatchN(…, 4) must return deeply equal
// analyses (nil and empty slices told apart) and identical error text for
// every block, mode and Detail.
func TestMissPathParity(t *testing.T) {
	blocks := bhive.GenerateBlocks(11, 100)
	ctx := context.Background()
	fresh := func() *facile.Engine {
		return newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1, Workers: 4})
	}
	for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
		for d := facile.DetailPrediction; d <= facile.DetailFull; d++ {
			reqs := make([]facile.Request, 0, len(blocks)+1)
			for _, b := range blocks {
				code := b.Code
				if mode == facile.Loop {
					code = b.LoopCode
				}
				reqs = append(reqs, facile.Request{Code: code, Arch: "SKL", Mode: mode, Detail: d})
			}
			reqs = append(reqs, facile.Request{Code: decode(t, "d9c0"), Arch: "SKL", Mode: mode, Detail: d})

			single := fresh()
			want := make([]facile.AnalysisResult, len(reqs))
			for i, req := range reqs {
				want[i].Analysis, want[i].Err = single.Analyze(ctx, req)
			}
			for _, workers := range []int{1, 4} {
				got := fresh().AnalyzeBatchN(ctx, reqs, workers)
				for i := range reqs {
					w, g := want[i], got[i]
					if (w.Err == nil) != (g.Err == nil) || (w.Err != nil && w.Err.Error() != g.Err.Error()) {
						t.Fatalf("%v/%v block %d, %d workers: Analyze err %v, batch err %v", mode, d, i, workers, w.Err, g.Err)
					}
					if !facile.EqualAnalyses(w.Analysis, g.Analysis) {
						t.Fatalf("%v/%v block %d, %d workers: analyses differ (a nil and an empty slice differ too)\nAnalyze: %+v\nbatch:   %+v",
							mode, d, i, workers, w.Analysis, g.Analysis)
					}
				}
			}
			if want[len(reqs)-1].Err == nil {
				t.Fatalf("%v/%v: undecodable block analyzed without error", mode, d)
			}
		}
	}
}
