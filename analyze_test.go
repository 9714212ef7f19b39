package facile_test

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"facile"
	"facile/internal/bhive"
	"facile/internal/eval"
)

func analyzeReq(t *testing.T, hex string, detail facile.Detail) facile.Request {
	t.Helper()
	return facile.Request{Code: decode(t, hex), Arch: "SKL", Mode: facile.Loop, Detail: detail}
}

func TestAnalyzeDetailLevels(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ctx := context.Background()

	ana, err := e.Analyze(ctx, analyzeReq(t, "480fafc348ffc975f7", facile.DetailPrediction))
	if err != nil {
		t.Fatal(err)
	}
	if ana.Prediction.CyclesPerIteration <= 0 {
		t.Fatalf("bad prediction: %+v", ana.Prediction)
	}
	if len(ana.Bounds) == 0 {
		t.Fatal("DetailPrediction must include the bound breakdown")
	}
	if ana.Speedups != nil || ana.ReportText != "" {
		t.Fatalf("DetailPrediction must not materialize speedups/report: %+v", ana)
	}

	ana, err = e.Analyze(ctx, analyzeReq(t, "480fafc348ffc975f7", facile.DetailSpeedups))
	if err != nil {
		t.Fatal(err)
	}
	if len(ana.Speedups) == 0 || ana.ReportText != "" {
		t.Fatalf("DetailSpeedups must add speedups but no report: %+v", ana)
	}

	ana, err = e.Analyze(ctx, analyzeReq(t, "480fafc348ffc975f7", facile.DetailFull))
	if err != nil {
		t.Fatal(err)
	}
	if len(ana.Speedups) == 0 || ana.ReportText == "" {
		t.Fatalf("DetailFull must carry everything: %+v", ana)
	}
}

// TestAnalyzeBoundsOrdered: the breakdown is deterministic, in pipeline
// (front-end-first) order, carries each component at most once, and agrees
// with the Bottlenecks list.
func TestAnalyzeBoundsOrdered(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ana, err := e.Analyze(context.Background(), analyzeReq(t, "4801d8480fafc3", facile.DetailPrediction))
	if err != nil {
		t.Fatal(err)
	}
	order := facile.ComponentNames()
	pos := map[string]int{}
	for i, name := range order {
		pos[name] = i
	}
	last := -1
	bottlenecks := 0
	for _, b := range ana.Bounds {
		p, ok := pos[b.Component]
		if !ok {
			t.Fatalf("unknown component %q", b.Component)
		}
		if p <= last {
			t.Fatalf("bounds out of pipeline order: %+v", ana.Bounds)
		}
		last = p
		if b.Bottleneck {
			bottlenecks++
		}
	}
	if bottlenecks != len(ana.Prediction.Bottlenecks) {
		t.Fatalf("%d bottleneck flags, %d bottleneck names", bottlenecks, len(ana.Prediction.Bottlenecks))
	}
}

// TestAnalyzeSpeedupsSorted: the speedup list is sorted descending, names
// each component at most once, and only carries meaningful factors.
func TestAnalyzeSpeedupsSorted(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	for _, bm := range bhive.Generate(eval.DefaultSeed, 20) {
		req := facile.Request{Code: bm.LoopCode, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailSpeedups}
		ana, err := e.Analyze(context.Background(), req)
		if err != nil {
			continue
		}
		if !sort.SliceIsSorted(ana.Speedups, func(i, j int) bool {
			return ana.Speedups[i].Factor > ana.Speedups[j].Factor
		}) {
			t.Fatalf("speedups not sorted descending: %+v", ana.Speedups)
		}
		seen := make(map[string]bool, len(ana.Speedups))
		for _, s := range ana.Speedups {
			if seen[s.Component] {
				t.Fatalf("component %s listed twice: %+v", s.Component, ana.Speedups)
			}
			seen[s.Component] = true
			if s.Factor < 1 {
				t.Fatalf("counterfactual speedup below 1: %+v", s)
			}
		}
	}
}

// TestAnalyzeReportParity: the report text is deterministic across
// resolutions, and names the prediction's primary bottleneck. The structural
// checks over generated corpora live in TestAnalysisInvariants.
func TestAnalyzeReportParity(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL", "HSW"}})
	cases := []struct {
		hex, arch string
		mode      facile.Mode
	}{
		{"480fafc3480fafcb480fafd3", "SKL", facile.Unroll}, // port-bound
		{"4883c00148ffc975f8", "HSW", facile.Loop},         // LSD + precedence
	}
	for _, tc := range cases {
		req := facile.Request{Code: decode(t, tc.hex), Arch: tc.arch, Mode: tc.mode, Detail: facile.DetailFull}
		ana, err := e.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := explainText(e, decode(t, tc.hex), tc.arch, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if got := ana.ReportText; got == "" || got != again {
			t.Errorf("ReportText unstable across resolutions:\n%s\nvs\n%s", got, again)
		}
		if want := "\nPrimary bottleneck: " + ana.Prediction.Bottlenecks[0] + "\n"; !strings.Contains(ana.ReportText, want) {
			t.Errorf("report does not name primary %v:\n%s", ana.Prediction.Bottlenecks, ana.ReportText)
		}
	}
}

// TestAnalyzeSingleCacheResolution is the consolidation acceptance gate: a
// warm full-detail Analyze performs exactly one cache entry resolution,
// where the legacy three-question pattern performed three.
func TestAnalyzeSingleCacheResolution(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	code := decode(t, "480307 4883c708 48ffc9 75f2")
	req := facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull}
	if _, err := e.Analyze(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	before := e.Stats()
	ana, err := e.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if ana.Speedups == nil || ana.ReportText == "" {
		t.Fatal("full-detail analysis incomplete")
	}
	after := e.Stats()
	if hits := after.Hits - before.Hits; hits != 1 {
		t.Errorf("warm full Analyze did %d cache resolutions, want exactly 1", hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("warm full Analyze missed the cache %d times", after.Misses-before.Misses)
	}

	// Asking the three questions as three separate calls costs three
	// resolutions — the consolidation the unified entrypoint removes.
	before = e.Stats()
	for _, d := range []facile.Detail{facile.DetailPrediction, facile.DetailSpeedups, facile.DetailFull} {
		req := facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: d}
		if _, err := e.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	after = e.Stats()
	if hits := after.Hits - before.Hits; hits != 3 {
		t.Errorf("three-call pattern did %d resolutions, want 3", hits)
	}
}

// TestAnalyzeMemoized: repeated warm Analyze calls return the identical
// shared Analysis, not a reconstruction.
func TestAnalyzeMemoized(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	req := analyzeReq(t, "4801d8480fafc3", facile.DetailFull)
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
	// Lower detail levels share the same memoized views.
	a3, err := e.Analyze(context.Background(), analyzeReq(t, "4801d8480fafc3", facile.DetailSpeedups))
	if err != nil {
		t.Fatal(err)
	}
	if len(a3.Speedups) != len(a1.Speedups) || a3.ReportText != "" {
		t.Fatalf("detail projection wrong: %+v", a3)
	}
}

// TestAnalyzeValidation: every boundary rejection matches ErrBadRequest and
// keeps the historical message text.
func TestAnalyzeValidation(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ctx := context.Background()
	code := decode(t, "4801d8")

	cases := []struct {
		name string
		req  facile.Request
		want string // required substring of the error text
	}{
		{"empty code", facile.Request{Code: nil, Arch: "SKL", Mode: facile.Loop},
			"facile: empty basic block"},
		{"bad mode", facile.Request{Code: code, Arch: "SKL", Mode: facile.Mode(7)},
			"facile: invalid mode 7"},
		{"bad detail", facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.Detail(9)},
			"facile: invalid detail 9"},
		// A restricted engine names only the arches it serves.
		{"unknown arch", facile.Request{Code: code, Arch: "???", Mode: facile.Loop},
			`uarch: unknown microarchitecture "???" (one of SKL)`},
		{"unconfigured arch", facile.Request{Code: code, Arch: "SNB", Mode: facile.Loop},
			"not configured"},
		{"undecodable", facile.Request{Code: []byte{0xD9, 0xC0}, Arch: "SKL", Mode: facile.Loop}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Analyze(ctx, tc.req)
			if err == nil {
				t.Fatal("Analyze accepted an invalid request")
			}
			if !errors.Is(err, facile.ErrBadRequest) {
				t.Errorf("error %q does not match ErrBadRequest", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// TestAnalyzeOversizedCode: blocks above EngineConfig.MaxCodeBytes are
// rejected at the boundary, uniformly with the other validations.
func TestAnalyzeOversizedCode(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, MaxCodeBytes: 16})
	big := make([]byte, 17)
	for i := range big {
		big[i] = 0x90
	}
	_, err := e.Analyze(context.Background(), facile.Request{Code: big, Arch: "SKL", Mode: facile.Loop})
	if err == nil || !errors.Is(err, facile.ErrBadRequest) {
		t.Fatalf("oversized block not rejected as ErrBadRequest: %v", err)
	}
	if !strings.Contains(err.Error(), "17 bytes") {
		t.Errorf("unhelpful oversize message: %v", err)
	}
	// 16 bytes is within the limit.
	if _, err := e.Analyze(context.Background(), facile.Request{Code: big[:16], Arch: "SKL", Mode: facile.Loop}); err != nil {
		t.Fatalf("at-limit block rejected: %v", err)
	}
}

// TestBoundaryErrorTextStability: the boundary rejections keep their
// historical message text across every entry point, and all match
// ErrBadRequest.
func TestBoundaryErrorTextStability(t *testing.T) {
	e := facile.DefaultEngine()
	ctx := context.Background()
	code := decode(t, "4801d8")
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"Analyze empty", func() error {
			_, err := e.Analyze(ctx, facile.Request{Arch: "SKL", Mode: facile.Loop})
			return err
		}, "facile: empty basic block"},
		{"Analyze bad mode", func() error {
			_, err := e.Analyze(ctx, facile.Request{Code: code, Arch: "SKL", Mode: facile.Mode(7)})
			return err
		}, "facile: invalid mode 7 (want Unroll or Loop)"},
		{"Analyze bad mode negative", func() error {
			_, err := e.Analyze(ctx, facile.Request{Code: code, Arch: "SKL", Mode: facile.Mode(-1)})
			return err
		}, "facile: invalid mode -1 (want Unroll or Loop)"},
		{"Simulate empty", func() error { _, err := e.Simulate(nil, "SKL", facile.Loop); return err },
			"facile: empty basic block"},
		{"Disassemble empty", func() error { _, err := facile.Disassemble(nil); return err },
			"facile: empty basic block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("invalid input accepted")
			}
			if err.Error() != tc.want {
				t.Errorf("error text changed: got %q, want %q", err, tc.want)
			}
			if !errors.Is(err, facile.ErrBadRequest) {
				t.Errorf("error %q does not match ErrBadRequest", err)
			}
		})
	}
	// Unknown-arch errors keep the registry's message and classify as bad
	// requests.
	_, err := e.Analyze(ctx, facile.Request{Code: code, Arch: "???", Mode: facile.Loop})
	if err == nil || !errors.Is(err, facile.ErrBadRequest) {
		t.Errorf("unknown arch: %v", err)
	}
}

// TestDefaultEngineShared: DefaultEngine is one shared process-wide engine —
// a block analyzed through it is warm on the next resolution.
func TestDefaultEngineShared(t *testing.T) {
	code := decode(t, "4883c001 48ffc9 75f8")
	if _, err := predict(facile.DefaultEngine(), code, "RKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	before := facile.DefaultEngine().Stats()
	if _, err := predict(facile.DefaultEngine(), code, "RKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	after := facile.DefaultEngine().Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("repeat query did not hit the default engine cache: %+v -> %+v", before, after)
	}
}

// TestAnalyzeContextObservedBetweenProbeAndCompute: a cancelled request is
// still served from a warm entry, but a cold request returns the context
// error without computing (and without polluting the miss accounting).
func TestAnalyzeContextObservedBetweenProbeAndCompute(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	warm := analyzeReq(t, "4801d8480fafc3", facile.DetailFull)
	if _, err := e.Analyze(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// Warm hit: served despite cancellation (it costs nothing).
	if _, err := e.Analyze(ctx, warm); err != nil {
		t.Fatalf("cancelled warm hit not served: %v", err)
	}

	// Cold miss: aborted before compute, stats untouched.
	before := e.Stats()
	_, err := e.Analyze(ctx, analyzeReq(t, "48ffc04829d8", facile.DetailPrediction))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cold Analyze: err = %v, want context.Canceled", err)
	}
	after := e.Stats()
	if after.Misses != before.Misses || after.Entries != before.Entries {
		t.Errorf("cancelled request computed anyway: %+v -> %+v", before, after)
	}
}

// TestAnalyzeBatchCancel: cancelling mid-batch aborts unstarted work with a
// deterministic per-item outcome — every result is either a completed
// analysis or the context's error — and leaks no goroutines.
func TestAnalyzeBatchCancel(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, Workers: 2})
	corpus := bhive.Generate(eval.DefaultSeed, 120)
	var reqs []facile.Request
	for _, bm := range corpus {
		reqs = append(reqs, facile.Request{Code: bm.LoopCode, Arch: "SKL", Mode: facile.Loop})
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []facile.AnalysisResult, 1)
	go func() { done <- e.AnalyzeBatch(ctx, reqs) }()
	// Cancel as soon as the engine shows progress, so the batch is
	// genuinely mid-flight.
	for e.Stats().Misses == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	results := <-done

	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	cancelled := 0
	for i, res := range results {
		switch {
		case res.Err == nil:
			if res.Analysis == nil || res.Analysis.Prediction.CyclesPerIteration <= 0 {
				t.Fatalf("req %d: completed without an analysis", i)
			}
		case errors.Is(res.Err, context.Canceled):
			cancelled++
			if res.Analysis != nil {
				t.Fatalf("req %d: cancelled item carries an analysis", i)
			}
		default:
			t.Fatalf("req %d: unexpected error %v", i, res.Err)
		}
	}
	t.Logf("%d/%d items cancelled", cancelled, len(results))

	// AnalyzeBatch is synchronous; its workers must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d running, baseline %d", n, baseline)
	}
}

// TestAnalyzeBatchPreCancelled: a batch whose context is already done
// completes every item with the context error and computes nothing.
func TestAnalyzeBatchPreCancelled(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []facile.Request{
		analyzeReq(t, "4801d8", facile.DetailPrediction),
		analyzeReq(t, "480fafc3", facile.DetailFull),
	}
	before := e.Stats()
	for i, res := range e.AnalyzeBatch(ctx, reqs) {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("req %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
	if after := e.Stats(); after.Misses != before.Misses {
		t.Errorf("pre-cancelled batch computed: %+v -> %+v", before, after)
	}
}

// TestAnalyzeBatchDeterministicOrdering: out[i] answers reqs[i] and matches
// the serial Analyze result, including interleaved failures.
func TestAnalyzeBatchDeterministicOrdering(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{})
	corpus := bhive.Generate(eval.DefaultSeed, 30)
	var reqs []facile.Request
	for i, bm := range corpus {
		arch := facile.Archs()[i%len(facile.Archs())]
		reqs = append(reqs, facile.Request{Code: bm.LoopCode, Arch: arch, Mode: facile.Loop, Detail: facile.DetailSpeedups})
	}
	reqs = append(reqs, facile.Request{Code: nil, Arch: "SKL", Mode: facile.Loop})
	reqs = append(reqs, facile.Request{Code: decode(t, "90"), Arch: "???", Mode: facile.Loop})

	results := e.AnalyzeBatch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i := range corpus {
		want, err := e.Analyze(context.Background(), reqs[i])
		if (err == nil) != (results[i].Err == nil) {
			t.Fatalf("req %d: error mismatch: %v vs %v", i, err, results[i].Err)
		}
		if err == nil && results[i].Analysis.Prediction.CyclesPerIteration != want.Prediction.CyclesPerIteration {
			t.Fatalf("req %d: %v, want %v", i,
				results[i].Analysis.Prediction.CyclesPerIteration, want.Prediction.CyclesPerIteration)
		}
	}
	if !errors.Is(results[len(reqs)-2].Err, facile.ErrBadRequest) {
		t.Error("empty block in batch must fail as a bad request")
	}
	if !errors.Is(results[len(reqs)-1].Err, facile.ErrBadRequest) {
		t.Error("unknown arch in batch must fail as a bad request")
	}
}

// TestUncachedEngine: CacheSize < 0 disables memoization — every call
// recomputes, stats count misses only, and results still match.
func TestUncachedEngine(t *testing.T) {
	cached := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	uncached := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	req := analyzeReq(t, "480307 4883c708 48ffc9 75f2", facile.DetailFull)

	want, err := cached.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := uncached.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prediction.CyclesPerIteration != want.Prediction.CyclesPerIteration {
			t.Fatalf("uncached prediction diverged: %v vs %v",
				got.Prediction.CyclesPerIteration, want.Prediction.CyclesPerIteration)
		}
		if got.ReportText != want.ReportText {
			t.Fatal("uncached report diverged")
		}
	}
	st := uncached.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 0 {
		t.Errorf("uncached stats = %+v, want 0 hits / 3 misses / 0 entries", st)
	}
}

// TestParseModeDetail: the wire vocabulary round-trips through the text
// marshalers.
func TestParseModeDetail(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want facile.Mode
	}{{"loop", facile.Loop}, {"TPL", facile.Loop}, {"unroll", facile.Unroll}, {"tpu", facile.Unroll}} {
		got, err := facile.ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := facile.ParseMode("sideways"); !errors.Is(err, facile.ErrBadRequest) {
		t.Errorf("ParseMode on junk: %v", err)
	}
	if b, err := facile.Loop.MarshalText(); err != nil || string(b) != "loop" {
		t.Errorf("Loop.MarshalText = %q, %v", b, err)
	}
	if _, err := facile.Mode(9).MarshalText(); err == nil {
		t.Error("Mode(9).MarshalText must fail")
	}

	for _, tc := range []struct {
		in   string
		want facile.Detail
	}{{"prediction", facile.DetailPrediction}, {"speedups", facile.DetailSpeedups}, {"full", facile.DetailFull}} {
		got, err := facile.ParseDetail(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDetail(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Detail.String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := facile.ParseDetail("everything"); !errors.Is(err, facile.ErrBadRequest) {
		t.Errorf("ParseDetail on junk: %v", err)
	}
}
