package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"facile"
)

// benchServer builds a server over a single-arch engine.
func benchServer(b *testing.B) *Server {
	b.Helper()
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

var benchBodies = func() [][]byte {
	blocks := []string{testBlockHex, "4801d8", "480fafc3", "9090", "48ffc0", "4829d8"}
	out := make([][]byte, len(blocks))
	for i, blk := range blocks {
		out[i] = []byte(fmt.Sprintf(`{"code":%q,"arch":"SKL","mode":"loop","detail":"prediction"}`, blk))
	}
	return out
}()

func benchPredictLoop(b *testing.B, s *Server, parallel bool) {
	run := func(i int) {
		req := httptest.NewRequest("POST", "/v1/analyze",
			bytes.NewReader(benchBodies[i%len(benchBodies)]))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				run(i)
				i++
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			run(i)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
}

// BenchmarkServerPredict measures the single-block request path serially
// (/v1/analyze at detail=prediction): one engine call per request.
func BenchmarkServerPredict(b *testing.B) {
	benchPredictLoop(b, benchServer(b), false)
}

// BenchmarkServerPredictParallel measures the same path under concurrent
// clients.
func BenchmarkServerPredictParallel(b *testing.B) {
	benchPredictLoop(b, benchServer(b), true)
}

// BenchmarkServerPredictBatchEndpoint measures the explicit batch endpoint:
// 64 blocks per request.
func BenchmarkServerPredictBatchEndpoint(b *testing.B) {
	s := benchServer(b)
	var reqs []BlockRequest
	for i := 0; i < 64; i++ {
		reqs = append(reqs, BlockRequest{Code: testBlockHex, Arch: "SKL", Mode: "loop"})
	}
	body, err := json.Marshal(BatchRequest{Requests: reqs})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/predict/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*64)/sec, "blocks/s")
	}
}
