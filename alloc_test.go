//go:build !race

package facile_test

import (
	"context"
	"runtime"
	"testing"

	"facile"
	"facile/internal/asm"
	"facile/internal/bhive"
	"facile/internal/eval"
	"facile/internal/x86"
)

// Allocation regression guards for the engine hot paths, excluded under the
// race detector (its instrumentation skews allocation accounting); the CI
// benchmark job runs them race-free.

// TestEngineWarmReportTextZeroAllocs: every Detail's Analysis — the
// rendered report text at DetailFull included — is kept by the cache
// entry, so a warm Analyze at any Detail must not allocate: the lookup
// probes the LRU with a zero-copy key and the views are derived exactly
// once.
func TestEngineWarmReportTextZeroAllocs(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ctx := context.Background()
	for _, in := range []struct {
		hex  string
		mode facile.Mode
	}{
		{"480307 4883c708 48ffc9 75f2", facile.Loop},
		{"480fafc3 480fafcb 480fafd3", facile.Unroll},
	} {
		for d := facile.DetailPrediction; d <= facile.DetailFull; d++ {
			req := facile.Request{Code: decode(t, in.hex), Arch: "SKL", Mode: in.mode, Detail: d}
			check := func() {
				ana, err := e.Analyze(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if (ana.ReportText != "") != (d == facile.DetailFull) {
					t.Fatalf("%s at %v: report text %q", in.hex, d, ana.ReportText)
				}
			}
			check()
			if allocs := testing.AllocsPerRun(200, check); allocs != 0 {
				t.Errorf("%s: warm Analyze(%v) allocates %.1f/op, want 0", in.hex, d, allocs)
			}
		}
	}
}

// TestAnalyzeBatchWarmZeroPerBlockAllocs: the chunked batch kernel must do
// zero per-block work on warm batches — the only allocations a warm
// AnalyzeBatchN makes are the per-call fixed ones — so the count must not
// move when the batch grows 16x, nor when its requests mix arches and
// modes: every item takes the same per-request path. The per-call constant
// is pinned too, so a stray fixed-cost allocation cannot hide behind the
// comparisons.
func TestAnalyzeBatchWarmZeroPerBlockAllocs(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL", "ICL"}})
	ctx := context.Background()
	codes := [][]byte{
		decode(t, "4801d8"),
		decode(t, "4801d8480fafc3"),
		decode(t, "480307 4883c708 48ffc9 75f2"),
		decode(t, "48ffc04883c103"),
	}
	mkReqs := func(n int, mixed bool) []facile.Request {
		reqs := make([]facile.Request, n)
		for i := range reqs {
			reqs[i] = facile.Request{Code: codes[i%len(codes)], Arch: "SKL", Mode: facile.Loop}
			if mixed && i%3 == 1 {
				reqs[i].Arch = "ICL"
			}
			if mixed && i%5 == 2 {
				reqs[i].Mode = facile.Unroll
			}
		}
		return reqs
	}
	warm := func(reqs []facile.Request) {
		for i := range reqs {
			if _, err := e.Analyze(ctx, reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large, mixed := mkReqs(16, false), mkReqs(256, false), mkReqs(256, true)
	warm(small)
	warm(large)
	warm(mixed)

	measure := func(reqs []facile.Request) float64 {
		return testing.AllocsPerRun(100, func() {
			out := e.AnalyzeBatchN(ctx, reqs, 1)
			for i := range out {
				if out[i].Err != nil {
					t.Fatal(out[i].Err)
				}
			}
		})
	}
	aSmall, aLarge, aMixed := measure(small), measure(large), measure(mixed)
	if aLarge != aSmall {
		t.Errorf("warm batch allocations scale with size: %d blocks -> %.1f, %d blocks -> %.1f (want equal)",
			len(small), aSmall, len(large), aLarge)
	}
	if aMixed != aLarge {
		t.Errorf("a mixed warm batch allocates %.1f/call, a homogeneous one %.1f (want equal)", aMixed, aLarge)
	}
	// Fixed per-call budget: the results slice and the worker's scratch
	// header. Anything above that is a regression.
	if aLarge > 2 {
		t.Errorf("warm AnalyzeBatchN fixed overhead is %.1f allocs/call, want <= 2", aLarge)
	}
}

// TestAnalyzeWarmHitZeroAllocs: a warm Analyze at any Detail returns the
// memoized shared Analysis — one cache resolution, zero allocations — so
// the unified entrypoint costs no more than the narrowest legacy view.
func TestAnalyzeWarmHitZeroAllocs(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	code := decode(t, "480307 4883c708 48ffc9 75f2")
	ctx := context.Background()

	for d := facile.DetailPrediction; d <= facile.DetailFull; d++ {
		req := facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: d}
		if _, err := e.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := e.Analyze(ctx, req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm Analyze(%v) hit allocates %.1f/op, want 0", d, allocs)
		}
	}
}

// TestSnapshotWarmHitZeroAllocs: a replica warmed by replaying another
// engine's working set as one prediction-level batch (the way a cache is
// carried to a fresh engine) serves every Detail from that entry without
// allocating and without a second miss.
func TestSnapshotWarmHitZeroAllocs(t *testing.T) {
	ctx := context.Background()
	src := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	var reqs []facile.Request
	for _, bm := range bhive.Generate(eval.DefaultSeed, 5) {
		req := facile.Request{Code: bm.LoopCode, Arch: "SKL", Mode: facile.Loop}
		if _, err := src.Analyze(ctx, req); err == nil {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) == 0 {
		t.Fatal("no valid corpus blocks")
	}
	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	for i, r := range dst.AnalyzeBatch(ctx, reqs) {
		if r.Err != nil {
			t.Fatalf("replay %d: %v", i, r.Err)
		}
	}
	misses := dst.Stats().Misses
	for d := facile.DetailPrediction; d <= facile.DetailFull; d++ {
		req := facile.Request{Code: reqs[0].Code, Arch: "SKL", Mode: facile.Loop, Detail: d}
		if _, err := dst.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := dst.Analyze(ctx, req); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm Analyze(%v) on a batch-replayed entry allocates %.1f/op, want 0", d, allocs)
		}
	}
	if got := dst.Stats().Misses; got != misses {
		t.Errorf("Analyze after replay missed %d more times, want 0", got-misses)
	}
}

// TestEngineColdStreamAllocFlat: on a stream of distinct blocks every
// Analyze is a cache miss, and a miss must cost the same allocation late in
// the stream as early on. Engine state shared across misses that grows with
// the number of distinct instructions seen (such as a copy-on-write
// descriptor memo republished as it grows) makes the last window's bytes per
// block a multiple of the first's.
func TestEngineColdStreamAllocFlat(t *testing.T) {
	const (
		n      = 8000
		window = 1000
	)
	seen := make(map[string]bool, n)
	var codes [][]byte
	for _, b := range bhive.GenerateBlocks(3, n+n/100) {
		if len(codes) < n && !seen[string(b.Code)] {
			seen[string(b.Code)] = true
			codes = append(codes, b.Code)
		}
	}
	if len(codes) < n {
		t.Fatalf("only %d distinct blocks generated, want %d", len(codes), n)
	}
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ctx := context.Background()
	var ms runtime.MemStats
	totalAlloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	analyze := func(lo, hi int) uint64 {
		before := totalAlloc()
		for i := lo; i < hi; i++ {
			req := facile.Request{Code: codes[i], Arch: "SKL", Mode: facile.Unroll}
			if _, err := e.Analyze(ctx, req); err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
		}
		return totalAlloc() - before
	}
	first := analyze(0, window)
	analyze(window, n-window)
	last := analyze(n-window, n)
	if st := e.Stats(); st.Misses != n {
		t.Fatalf("misses = %d, want %d (every block distinct)", st.Misses, n)
	}
	ratio := float64(last) / float64(first)
	t.Logf("bytes/block: first %d, last %d (ratio %.2f)", first/window, last/window, ratio)
	if ratio > 1.25 {
		t.Errorf("bytes allocated per cold block grew %.2fx from the first %d blocks to the last %d, want <= 1.25x",
			ratio, window, window)
	}
}

// TestEngineEntrySizeTracksHeap: the accounted size of cached entries
// (Stats.SizeBytes, which byte budgets use) stays within 2x of the heap
// bytes those entries actually retain — whether each entry is computed by
// Analyze or by the batch kernel, here in batches of one, the shape of a
// small /v1/predict/batch call, and whether or not its prediction's
// encoding is remembered. A batch must not leave a slab sized
// for many blocks reachable from the one entry it computed.
func TestEngineEntrySizeTracksHeap(t *testing.T) {
	const n = 2000
	var codes [][]byte
	for _, b := range bhive.GenerateBlocks(5, n) {
		codes = append(codes, b.Code)
	}
	for _, tc := range []struct {
		name    string
		analyze func(e *facile.Engine, req facile.Request) error
	}{
		{"Analyze", func(e *facile.Engine, req facile.Request) error {
			_, err := e.Analyze(context.Background(), req)
			return err
		}},
		{"AnalyzeBatchOfOne", func(e *facile.Engine, req facile.Request) error {
			return e.AnalyzeBatch(context.Background(), []facile.Request{req})[0].Err
		}},
		// Every cached prediction encoded once, as a batch response does:
		// the entry keeps the bytes, and its accounted size includes them.
		{"AnalyzeAndEncode", func(e *facile.Engine, req facile.Request) error {
			ana, err := e.Analyze(context.Background(), req)
			if err != nil {
				return err
			}
			_, err = ana.Prediction.AppendJSON(nil, "      ")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One shard holding every entry: nothing is evicted during the run.
			e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: 2 * n, CacheShards: 1})
			var ms runtime.MemStats
			heapAlloc := func() uint64 {
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			// One analysis first, so one-time engine state is not charged to
			// the entries.
			if err := tc.analyze(e, facile.Request{Code: codes[0], Arch: "SKL", Mode: facile.Unroll}); err != nil {
				t.Fatal(err)
			}
			before := heapAlloc()
			sizeBefore := e.Stats().SizeBytes
			for _, code := range codes[1:] {
				if err := tc.analyze(e, facile.Request{Code: code, Arch: "SKL", Mode: facile.Unroll}); err != nil {
					t.Fatal(err)
				}
			}
			retained := float64(heapAlloc() - before)
			accounted := float64(e.Stats().SizeBytes - sizeBefore)
			runtime.KeepAlive(codes)
			t.Logf("per entry: accounted %.0f B, retained %.0f B", accounted/(n-1), retained/(n-1))
			if accounted > 2*retained || retained > 2*accounted {
				t.Errorf("accounted %.0f B per entry, heap retains %.0f B: not within 2x", accounted/(n-1), retained/(n-1))
			}
		})
	}
}

// TestAnalyzeColdMissAllocs: an uncached Analyze builds the block into the
// engine's pooled miss scratch and renders the instruction text into its
// buffer, so a cold miss makes a small, fixed number of allocations — the
// results its entry keeps — however many instructions the block has.
func TestAnalyzeColdMissAllocs(t *testing.T) {
	const budget = 10
	body := []asm.Instr{
		asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.M(x86.RDI, 8)),
		asm.Mk(x86.IMUL, 64, asm.R(x86.RBX), asm.R(x86.RAX)),
		asm.Mk(x86.MOV, 64, asm.MX(x86.RSI, x86.RCX, 8, 16), asm.R(x86.RBX)),
		asm.Mk(x86.ADDPS, 128, asm.R(x86.X0), asm.R(x86.X1)),
		asm.Mk(x86.LEA, 64, asm.R(x86.RDX), asm.MX(x86.RAX, x86.RBX, 2, 8)),
		asm.Mk(x86.CMP, 64, asm.R(x86.RDX), asm.R(x86.RAX)),
	}
	// block holds n instructions: the body repeated, then a dec/jne loop tail.
	block := func(n int) []byte {
		var ins []asm.Instr
		for k := 0; k < n-2; k++ {
			ins = append(ins, body[k%len(body)])
		}
		ins = append(ins, asm.Mk(x86.DEC, 64, asm.R(x86.R15)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)))
		return asm.MustEncodeBlock(ins)
	}
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	ctx := context.Background()
	for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
		var allocs [2]float64
		for i, n := range []int{8, 256} {
			req := facile.Request{Code: block(n), Arch: "SKL", Mode: mode}
			allocs[i] = testing.AllocsPerRun(50, func() {
				ana, err := e.Analyze(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if len(ana.Prediction.Instructions) != n {
					t.Fatalf("%d instructions rendered, want %d", len(ana.Prediction.Instructions), n)
				}
			})
			if allocs[i] > budget {
				t.Errorf("%v, %d instructions: uncached Analyze allocates %.1f/op, want <= %d", mode, n, allocs[i], budget)
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%v: uncached Analyze allocates %.1f/op at 8 instructions, %.1f/op at 256, want equal", mode, allocs[0], allocs[1])
		}
	}
}
