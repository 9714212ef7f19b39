package facile

import (
	"context"
	"encoding/hex"
	"runtime"
	"testing"
	"weak"
)

func mustDecode(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// batchTestCodes are small valid blocks with distinct analyses.
var batchTestCodes = []string{
	"4801d8",           // add rax,rbx
	"4801d8480fafc3",   // add rax,rbx; imul rax,rbx
	"480fafc0480fafc0", // imul rax,rax x2 (dependence chain)
	"48ffc04883c103",   // inc rax; add rcx,3
}

func batchRequests(t *testing.T, n int) []Request {
	t.Helper()
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Code: mustDecode(t, batchTestCodes[i%len(batchTestCodes)]),
			Arch: "SKL",
			Mode: Loop,
		}
	}
	return reqs
}

func TestGroupBatchHomogeneous(t *testing.T) {
	reqs := batchRequests(t, 8)
	order, groups := groupBatch(reqs)
	if order != nil {
		t.Fatalf("homogeneous batch produced an order slice: %v", order)
	}
	if len(groups) != 1 || groups[0] != (batchChunk{0, 8}) {
		t.Fatalf("homogeneous batch groups = %v, want [{0 8}]", groups)
	}
}

func TestGroupBatchHeterogeneous(t *testing.T) {
	reqs := batchRequests(t, 9)
	reqs[1].Arch = "ICL"
	reqs[4].Mode = Unroll
	reqs[7].Arch = "ICL"
	order, groups := groupBatch(reqs)
	if order == nil {
		t.Fatal("heterogeneous batch produced no order slice")
	}
	// The order must be a permutation of the batch.
	seen := make([]bool, len(reqs))
	for _, idx := range order {
		if idx < 0 || idx >= len(reqs) || seen[idx] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[idx] = true
	}
	// Groups must tile [0, n) and be internally uniform in (arch, mode).
	pos := 0
	for _, g := range groups {
		if g.lo != pos || g.hi <= g.lo {
			t.Fatalf("groups %v do not tile the batch", groups)
		}
		first := reqs[order[g.lo]]
		for i := g.lo; i < g.hi; i++ {
			r := reqs[order[i]]
			if r.Arch != first.Arch || r.Mode != first.Mode {
				t.Fatalf("group %v mixes (arch, mode): %q/%v vs %q/%v",
					g, first.Arch, first.Mode, r.Arch, r.Mode)
			}
		}
		pos = g.hi
	}
	if pos != len(reqs) {
		t.Fatalf("groups %v cover %d of %d positions", groups, pos, len(reqs))
	}
	// Stability: within a group, original indices stay ascending.
	for _, g := range groups {
		for i := g.lo + 1; i < g.hi; i++ {
			if order[i] < order[i-1] {
				t.Fatalf("group %v is not stable: order %v", g, order)
			}
		}
	}
}

func TestSplitChunks(t *testing.T) {
	cases := []struct {
		groups  []batchChunk
		workers int
		n       int
	}{
		{[]batchChunk{{0, 10}}, 4, 10},
		{[]batchChunk{{0, 3}, {3, 1000}, {1000, 1024}}, 8, 1024},
		{[]batchChunk{{0, 1}}, 16, 1},
		{[]batchChunk{{0, 5000}}, 2, 5000},
	}
	for _, tc := range cases {
		chunks := splitChunks(tc.groups, tc.workers, tc.n)
		pos, gi := 0, 0
		for _, c := range chunks {
			if c.lo != pos || c.hi <= c.lo {
				t.Fatalf("workers=%d: chunks %v do not tile [0, %d)", tc.workers, chunks, tc.n)
			}
			if c.hi-c.lo > maxChunkLen {
				t.Fatalf("workers=%d: chunk %v exceeds maxChunkLen", tc.workers, c)
			}
			// A chunk must stay inside one group.
			for tc.groups[gi].hi <= c.lo {
				gi++
			}
			if c.lo < tc.groups[gi].lo || c.hi > tc.groups[gi].hi {
				t.Fatalf("workers=%d: chunk %v crosses group %v", tc.workers, c, tc.groups[gi])
			}
			pos = c.hi
		}
		if pos != tc.n {
			t.Fatalf("workers=%d: chunks %v cover %d of %d", tc.workers, chunks, pos, tc.n)
		}
	}
}

// TestAnalyzeBatchWorkerClamping covers the scheduler's degenerate worker
// counts: more workers than items, exactly one worker (the serial path), and
// the engine-pool default. All must produce index-identical results.
func TestAnalyzeBatchWorkerClamping(t *testing.T) {
	e, err := NewEngine(EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := batchRequests(t, 3)
	reqs[1].Mode = Unroll // exercise grouping too
	want := make([]*Analysis, len(reqs))
	for i, req := range reqs {
		want[i], err = e.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{64, 1, 0, -5} {
		out := e.AnalyzeBatchN(context.Background(), reqs, workers)
		if len(out) != len(reqs) {
			t.Fatalf("workers=%d: got %d results for %d requests", workers, len(out), len(reqs))
		}
		for i := range out {
			if out[i].Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, out[i].Err)
			}
			if out[i].Analysis != want[i] {
				t.Fatalf("workers=%d item %d: batch analysis differs from Analyze", workers, i)
			}
		}
	}
}

// TestAnalyzeBatchChunkedMatchesSerial pins the determinism contract: the
// chunked parallel kernel must produce index-identical results to the serial
// path, for both homogeneous and heterogeneous (grouped, reordered) batches,
// with per-item errors staying on their own index.
func TestAnalyzeBatchChunkedMatchesSerial(t *testing.T) {
	e, err := NewEngine(EngineConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	reqs := batchRequests(t, 200)
	for i := range reqs {
		switch i % 5 {
		case 1:
			reqs[i].Arch = "ICL"
		case 2:
			reqs[i].Mode = Unroll
		case 3:
			reqs[i].Arch = "no-such-arch" // per-item arch error
		}
	}
	reqs[17].Code = nil           // per-item empty-code error
	reqs[33].Code = []byte{0x06}  // per-item decode error
	reqs[49].Detail = Detail(200) // per-item detail error
	serial := e.AnalyzeBatchN(context.Background(), reqs, 1)
	parallel := e.AnalyzeBatchN(context.Background(), reqs, 8)
	for i := range reqs {
		se, pe := serial[i].Err, parallel[i].Err
		if (se == nil) != (pe == nil) {
			t.Fatalf("item %d: serial err %v, parallel err %v", i, se, pe)
		}
		if se != nil {
			if se.Error() != pe.Error() {
				t.Fatalf("item %d: serial err %q, parallel err %q", i, se, pe)
			}
			continue
		}
		if serial[i].Analysis != parallel[i].Analysis {
			t.Fatalf("item %d: serial and parallel analyses differ", i)
		}
	}
}

// TestAnalyzeBatchCancellation checks both cancellation shapes: a batch
// submitted on a dead context fails every item with the context error, and a
// batch cancelled mid-flight still returns one deterministic result per
// request, each either a completed analysis or the context error.
func TestAnalyzeBatchCancellation(t *testing.T) {
	e, err := NewEngine(EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := batchRequests(t, 64)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		out := e.AnalyzeBatchN(ctx, reqs, workers)
		for i := range out {
			if out[i].Err != context.Canceled {
				t.Fatalf("workers=%d item %d: err = %v, want context.Canceled", workers, i, out[i].Err)
			}
		}
	}

	// Mid-flight: cancel from a racing goroutine. Whatever the interleaving,
	// every slot must hold exactly one of (analysis, context error).
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	out := e.AnalyzeBatchN(ctx2, reqs, 4)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(out), len(reqs))
	}
	for i := range out {
		switch {
		case out[i].Err == nil && out[i].Analysis != nil:
		case out[i].Err == context.Canceled && out[i].Analysis == nil:
		default:
			t.Fatalf("item %d: inconsistent result {analysis: %v, err: %v}",
				i, out[i].Analysis != nil, out[i].Err)
		}
	}
}

// TestAnalyzeCodeBufferReuse pins the durable-entry contract: the engine
// never retains caller memory, so a caller may clobber its Code buffer the
// moment a call returns without corrupting the cached analysis or the
// memoized simulation.
func TestAnalyzeCodeBufferReuse(t *testing.T) {
	e, err := NewEngine(EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	buf := mustDecode(t, "4801d8480fafc3")
	first, err := e.Analyze(context.Background(), Request{Code: buf, Arch: "SKL", Mode: Loop})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Prediction.CyclesPerIteration
	sim1, err := e.Simulate(buf, "SKL", Loop)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xCC // clobber the caller's buffer
	}
	again, err := e.Analyze(context.Background(), Request{Code: mustDecode(t, "4801d8480fafc3"), Arch: "SKL", Mode: Loop})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("warm re-analysis did not hit the cached entry")
	}
	if again.Prediction.CyclesPerIteration != want {
		t.Fatalf("cached prediction corrupted by buffer reuse: %v != %v",
			again.Prediction.CyclesPerIteration, want)
	}
	// The memoized simulation must also be intact.
	sim2, err := e.Simulate(mustDecode(t, "4801d8480fafc3"), "SKL", Loop)
	if err != nil {
		t.Fatal(err)
	}
	if sim1 != sim2 {
		t.Fatalf("memoized simulation corrupted by buffer reuse: %v != %v", sim1, sim2)
	}
}

// TestMissReleasesCodeBuffer: a cache miss builds its block into a pooled
// scratch from the request's bytes, and the block's instructions subslice
// them; the scratch must let go of them before it goes back to the pool.
// One collection moves the pool's contents to its victim cache, where they
// stay reachable, so a scratch that still held the block's code would keep
// the caller's buffer alive past it.
func TestMissReleasesCodeBuffer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     EngineConfig
		analyze func(e *Engine, code []byte) error
	}{
		{"uncached Analyze", EngineConfig{Archs: []string{"SKL"}, CacheSize: -1}, func(e *Engine, code []byte) error {
			_, err := e.Analyze(context.Background(), Request{Code: code, Arch: "SKL", Mode: Loop})
			return err
		}},
		{"cached Analyze", EngineConfig{Archs: []string{"SKL"}}, func(e *Engine, code []byte) error {
			_, err := e.Analyze(context.Background(), Request{Code: code, Arch: "SKL", Mode: Loop})
			return err
		}},
		{"AnalyzeBatch", EngineConfig{Archs: []string{"SKL"}}, func(e *Engine, code []byte) error {
			return e.AnalyzeBatch(context.Background(), []Request{{Code: code, Arch: "SKL", Mode: Loop}})[0].Err
		}},
		{"Simulate", EngineConfig{Archs: []string{"SKL"}}, func(e *Engine, code []byte) error {
			_, err := e.Simulate(code, "SKL", Loop)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			buf := func() weak.Pointer[byte] {
				// 19 bytes: an allocation under 16 bytes may share a block
				// with other small objects that keep it alive.
				code := mustDecode(t, "4801d8480fafc34801d8480fafc348ffc975ed")
				if err := tc.analyze(e, code); err != nil {
					t.Fatal(err)
				}
				return weak.Make(&code[0])
			}()
			runtime.GC()
			if buf.Value() != nil {
				t.Error("the caller's code buffer is still reachable after the call returned")
			}
			runtime.KeepAlive(e)
		})
	}
}
