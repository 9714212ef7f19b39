package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sort"
	"testing"

	"facile"
)

func TestAnalyzeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	var full AnalyzeResponse
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
	if len(full.Speedups) == 0 || full.Report == nil || full.ReportText == "" {
		t.Errorf("default detail must be full: %+v", full)
	}
	if !sort.SliceIsSorted(full.Speedups, func(i, j int) bool {
		return full.Speedups[i].Factor > full.Speedups[j].Factor
	}) {
		t.Errorf("speedups not sorted descending: %+v", full.Speedups)
	}

	// Bounds agree with the prediction's component map and carry the
	// bottleneck flags.
	bottlenecks := 0
	for _, b := range full.Bounds {
		if full.Prediction.Components[b.Component] != b.Cycles {
			t.Errorf("bound %s = %v, components map says %v",
				b.Component, b.Cycles, full.Prediction.Components[b.Component])
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

	var predOnly AnalyzeResponse
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "detail": "prediction"}, &predOnly); code != 200 {
		t.Fatalf("status %d", code)
	}
	if predOnly.Speedups != nil || predOnly.Report != nil || predOnly.ReportText != "" {
		t.Errorf("detail=prediction must omit speedups/report: %+v", predOnly)
	}
	if len(predOnly.Bounds) == 0 {
		t.Error("detail=prediction must still include bounds")
	}

	var sp AnalyzeResponse
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "detail": "speedups"}, &sp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(sp.Speedups) == 0 || sp.Report != nil {
		t.Errorf("detail=speedups must add speedups but no report: %+v", sp)
	}

	var er ErrorResponse
	if code := do(t, s, "POST", "/v1/analyze",
		map[string]string{"code": testBlockHex, "arch": "SKL", "detail": "everything"}, &er); code != 400 {
		t.Fatalf("bad detail: status %d, want 400", code)
	}
}

// TestAnalyzeViewsAgree: /v1/explain and /v1/speedups are views over the
// same analysis /v1/analyze serves — the rendered report and the speedup
// map must match field for field.
func TestAnalyzeViewsAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	body := map[string]string{"code": testBlockHex, "arch": "SKL", "mode": "loop"}

	var full AnalyzeResponse
	if code := do(t, s, "POST", "/v1/analyze", body, &full); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	var ex ExplainResponse
	if code := do(t, s, "POST", "/v1/explain", body, &ex); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	if ex.Report != full.ReportText {
		t.Errorf("explain report differs from analyze report_text:\n%s\nvs\n%s", ex.Report, full.ReportText)
	}
	var spr SpeedupsResponse
	if code := do(t, s, "POST", "/v1/speedups", body, &spr); code != 200 {
		t.Fatalf("speedups status %d", code)
	}
	if len(spr.Speedups) != len(full.Speedups) {
		t.Fatalf("speedups map has %d entries, list has %d", len(spr.Speedups), len(full.Speedups))
	}
	for _, sp := range full.Speedups {
		if spr.Speedups[sp.Component] != sp.Factor {
			t.Errorf("speedups[%s] = %v, analyze list says %v",
				sp.Component, spr.Speedups[sp.Component], sp.Factor)
		}
	}
}

// TestEndpointsSingleResolution: every warm single-block endpoint resolves
// the engine cache exactly once per request — the consolidation the
// Analyze redesign bought (the explain/speedups handlers used to look the
// entry up twice each).
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
	for _, path := range []string{"/v1/analyze", "/v1/predict", "/v1/explain", "/v1/speedups"} {
		before := engine.Stats()
		if code := do(t, s, "POST", path, body, nil); code != 200 {
			t.Fatalf("%s: status %d", path, code)
		}
		after := engine.Stats()
		if hits := after.Hits - before.Hits; hits != 1 {
			t.Errorf("%s: %d cache resolutions on a warm request, want exactly 1", path, hits)
		}
		if after.Misses != before.Misses {
			t.Errorf("%s: warm request missed the cache", path)
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
