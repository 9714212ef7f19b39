//go:build !race

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"facile"
)

// nullResponseWriter is a ResponseWriter whose buffer is reused across
// requests, so endpoint allocation measurements see the server's work, not
// the recorder's response-buffer growth.
type nullResponseWriter struct {
	h   http.Header
	buf []byte
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(int)     {}
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestBatchEndpointZeroPerBlockAllocs pins the warm wire path end to end:
// body parse, hex decode, batch analysis, and response encoding must do zero
// per-block allocations, so the per-call allocation count cannot move when
// the batch grows 8x. Mixed repeated and distinct blocks exercise both the
// prediction-dedup copy path and full encoding.
func TestBatchEndpointZeroPerBlockAllocs(t *testing.T) {
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	blocks := []string{"4801d8480fafc3", "4801d8", "480fafc0480fafc0", "48ffc04883c103"}
	mkBody := func(n int) []byte {
		var reqs []BlockRequest
		for i := 0; i < n; i++ {
			reqs = append(reqs, BlockRequest{Code: blocks[i%len(blocks)], Arch: "SKL", Mode: "loop"})
		}
		body, err := json.Marshal(BatchRequest{Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	small, large := mkBody(8), mkBody(64)
	w := &nullResponseWriter{h: make(http.Header)}
	serve := func(body []byte) {
		req := httptest.NewRequest("POST", "/v1/predict/batch", bytes.NewReader(body))
		w.buf = w.buf[:0]
		s.ServeHTTP(w, req)
	}
	serve(small) // warm caches and pools
	serve(large)

	measure := func(body []byte) float64 {
		return testing.AllocsPerRun(100, func() { serve(body) })
	}
	aSmall, aLarge := measure(small), measure(large)
	if aLarge != aSmall {
		t.Errorf("warm batch endpoint allocations scale with size: 8 blocks -> %.1f, 64 blocks -> %.1f (want equal)",
			aSmall, aLarge)
	}
	if !bytes.Contains(w.buf, []byte("cycles_per_iteration")) {
		t.Fatalf("unexpected response: %s", w.buf)
	}
}
