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

// TestChunkLen: the chunks the batch kernel claims, chunkLen items each,
// tile the batch with at most maxChunkLen items a chunk and give every
// worker a share.
func TestChunkLen(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{4, 10},
		{8, 1024},
		{16, 1},
		{2, 5000},
		{3, 7},
	} {
		size := chunkLen(tc.n, tc.workers)
		if size < 1 || size > maxChunkLen {
			t.Fatalf("workers=%d, n=%d: chunk length %d outside [1, %d]", tc.workers, tc.n, size, maxChunkLen)
		}
		if chunks := (tc.n + size - 1) / size; chunks < min(tc.workers, tc.n) {
			t.Fatalf("workers=%d, n=%d: %d chunks of %d leave workers idle", tc.workers, tc.n, chunks, size)
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
	reqs[1].Mode = Unroll // a mixed batch
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
// moment a call returns without corrupting the cached analysis or a later
// simulation of the same bytes.
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
	// A simulation of fresh bytes must match the first one.
	sim2, err := e.Simulate(mustDecode(t, "4801d8480fafc3"), "SKL", Loop)
	if err != nil {
		t.Fatal(err)
	}
	if sim1 != sim2 {
		t.Fatalf("simulation changed after buffer reuse: %v != %v", sim1, sim2)
	}
}

// TestMissReleasesCodeBuffer: a cache miss builds its block into a pooled
// scratch from the request's bytes, and the block's instructions subslice
// them; the scratch must let go of them before it goes back to the pool.
// One collection moves the pool's contents to its victim cache, where they
// stay reachable, so a scratch that still held the block's code would keep
// the caller's buffer alive past it. Simulate builds a block of its own and
// must not keep the buffer either.
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
		{"AnalyzeEach variant", EngineConfig{Archs: []string{"SKL"}}, func(e *Engine, code []byte) error {
			v, err := e.Registry().DeriveVariant("SKL~w", "SKL", []byte(`{"issue_width":3}`))
			if err != nil {
				return err
			}
			e.AnalyzeEach(context.Background(), []Request{{Code: code, Mode: Loop, Variant: v, Detail: DetailFull}}, 1,
				func(_ int, _ *Analysis, aerr error) { err = aerr })
			return err
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
