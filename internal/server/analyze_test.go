package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"facile"
	"facile/internal/bhive"
)

func TestAnalyzeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	var full facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "mode": "loop"}, &full); code != 200 {
		t.Fatalf("status %d", code)
	}
	if full.Prediction.CyclesPerIteration <= 0 || full.Prediction.Arch != "SKL" {
		t.Errorf("bad prediction: %+v", full.Prediction)
	}
	if len(full.Bounds) == 0 {
		t.Error("missing bounds breakdown")
	}
	if len(full.Speedups) == 0 || full.ReportText == "" {
		t.Errorf("default detail must be full: %+v", full)
	}
	if !sort.SliceIsSorted(full.Speedups, func(i, j int) bool {
		return full.Speedups[i].Factor > full.Speedups[j].Factor
	}) {
		t.Errorf("speedups not sorted descending: %+v", full.Speedups)
	}

	// Bounds agree with the library's breakdown and carry the bottleneck
	// flags.
	lib, err := facile.DefaultEngine().Analyze(context.Background(),
		facile.Request{Code: mustHex(t, testBlockHex), Arch: "SKL", Mode: facile.Loop})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Bounds) != len(lib.Bounds) {
		t.Fatalf("wire has %d bounds, library %d", len(full.Bounds), len(lib.Bounds))
	}
	bottlenecks := 0
	for i, b := range full.Bounds {
		if b != lib.Bounds[i] {
			t.Errorf("bound %d = %+v, library says %+v", i, b, lib.Bounds[i])
		}
		if b.Bottleneck {
			bottlenecks++
		}
	}
	if bottlenecks != len(full.Prediction.Bottlenecks) {
		t.Errorf("%d bottleneck flags, %d bottleneck names", bottlenecks, len(full.Prediction.Bottlenecks))
	}
}

// TestAnalyzeDetailLevels: the detail parameter trims the response; an
// unknown detail is a 400.
func TestAnalyzeDetailLevels(t *testing.T) {
	s := newTestServer(t, Config{})

	var predOnly facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "detail": "prediction"}, &predOnly); code != 200 {
		t.Fatalf("status %d", code)
	}
	if predOnly.Speedups != nil || predOnly.ReportText != "" {
		t.Errorf("detail=prediction must omit speedups/report: %+v", predOnly)
	}
	if len(predOnly.Bounds) == 0 {
		t.Error("detail=prediction must still include bounds")
	}

	var sp facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "detail": "speedups"}, &sp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(sp.Speedups) == 0 || sp.ReportText != "" {
		t.Errorf("detail=speedups must add speedups but no report: %+v", sp)
	}

	var er ErrorResponse
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "detail": "everything"}, &er); code != 400 {
		t.Fatalf("bad detail: status %d, want 400", code)
	}
}

// TestAnalyzeViewsAgree: the detail levels are views over one analysis —
// the narrower levels return the same prediction, bounds and speedups as
// detail=full, and report_text is the library's rendered report.
func TestAnalyzeViewsAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	block := BlockRequest{Code: testBlockHex, Arch: "SKL", Mode: "loop"}

	var full facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze", AnalyzeRequest{BlockRequest: block}, &full); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	lib, err := facile.DefaultEngine().Analyze(context.Background(),
		facile.Request{Code: mustHex(t, testBlockHex), Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull})
	if err != nil {
		t.Fatal(err)
	}
	if want := lib.ReportText; full.ReportText != want {
		t.Errorf("report_text differs from the library report:\n%s\nvs\n%s", full.ReportText, want)
	}
	for _, detail := range []string{"prediction", "speedups"} {
		var view facile.Analysis
		if code := do(t, s, "POST", "/v1/analyze", AnalyzeRequest{BlockRequest: block, Detail: detail}, &view); code != 200 {
			t.Fatalf("detail=%s status %d", detail, code)
		}
		if !reflect.DeepEqual(view.Prediction, full.Prediction) || !reflect.DeepEqual(view.Bounds, full.Bounds) {
			t.Errorf("detail=%s prediction/bounds differ from detail=full:\n%+v %+v\nvs\n%+v %+v",
				detail, view.Prediction, view.Bounds, full.Prediction, full.Bounds)
		}
		if detail == "speedups" && !reflect.DeepEqual(view.Speedups, full.Speedups) {
			t.Errorf("detail=speedups list %+v, detail=full list %+v", view.Speedups, full.Speedups)
		}
	}
}

// TestEndpointsSingleResolution: a warm single-block request resolves the
// engine cache exactly once at every detail level.
func TestEndpointsSingleResolution(t *testing.T) {
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine})
	body := map[string]string{"code": testBlockHex, "arch": "SKL", "mode": "loop"}

	// Warm the entry.
	if code := do(t, s, "POST", "/v1/analyze", body, nil); code != 200 {
		t.Fatalf("warmup status %d", code)
	}
	for _, detail := range []string{"full", "prediction", "speedups"} {
		body["detail"] = detail
		before := engine.Stats()
		if code := do(t, s, "POST", "/v1/analyze", body, nil); code != 200 {
			t.Fatalf("detail=%s: status %d", detail, code)
		}
		after := engine.Stats()
		if hits := after.Hits - before.Hits; hits != 1 {
			t.Errorf("detail=%s: %d cache resolutions on a warm request, want exactly 1", detail, hits)
		}
		if after.Misses != before.Misses {
			t.Errorf("detail=%s: warm request missed the cache", detail)
		}
	}
}

// TestAbandonedRequestNotComputed: a request whose client has already gone
// away is answered with the 499-style abandonment status without the
// engine computing anything — Engine.Analyze observes the context between
// its cache probe and the compute. Every request takes the direct path.
func TestAbandonedRequestNotComputed(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Engine: engine})

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// A cold block: computing it would show up as a cache miss.
		req := httptest.NewRequest("POST", "/v1/analyze",
			bytes.NewReader([]byte(`{"code":"48ffc94829d84801d8","arch":"SKL","mode":"loop"}`)))
		req = req.WithContext(ctx)
		before := engine.Stats()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 499 {
			t.Fatalf("status %d, want 499", w.Code)
		}
		if after := engine.Stats(); after.Misses != before.Misses {
			t.Errorf("abandoned request was computed: %+v -> %+v", before, after)
		}
	})
}

// TestAnalyzeBodyIsLibraryAnalysis: /v1/analyze sends the library's
// *facile.Analysis and nothing else — at every detail level the response
// body is byte-identical to a two-space-indented json.Encoder encoding of
// the Analysis that Engine.Analyze returns for the same request, which is
// also what `facile -json` prints.
func TestAnalyzeBodyIsLibraryAnalysis(t *testing.T) {
	s := newTestServer(t, Config{})
	lib, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := []string{testBlockHex, "480fafc0480fafc0", "4801d8", "480fafc3480fafcb480fafd3"}
	for _, b := range bhive.GenerateBlocks(5, 24) {
		blocks = append(blocks, hex.EncodeToString(b.Code))
	}
	for _, code := range blocks {
		for _, mode := range []facile.Mode{facile.Loop, facile.Unroll} {
			for d := facile.DetailPrediction; d <= facile.DetailFull; d++ {
				want, err := lib.Analyze(context.Background(), facile.Request{
					Code: mustHex(t, code), Arch: "ICL", Mode: mode, Detail: d,
				})
				if err != nil {
					t.Fatal(err)
				}
				var enc bytes.Buffer
				je := json.NewEncoder(&enc)
				je.SetIndent("", "  ")
				if err := je.Encode(want); err != nil {
					t.Fatal(err)
				}

				wireMode, _ := mode.MarshalText()
				body, _ := json.Marshal(AnalyzeRequest{
					BlockRequest: BlockRequest{Code: code, Arch: "ICL", Mode: string(wireMode)},
					Detail:       d.String(),
				})
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
				if w.Code != 200 {
					t.Fatalf("%s %v %v: status %d: %s", code, mode, d, w.Code, w.Body.String())
				}
				if !bytes.Equal(w.Body.Bytes(), enc.Bytes()) {
					t.Fatalf("%s %v %v: body differs from the library Analysis\n got: %s\nwant: %s",
						code, mode, d, w.Body.String(), enc.String())
				}
			}
		}
	}
}
