package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"facile"
)

// testBlock is "add rax,rbx; imul rax,rbx" — the README quick-start block.
const testBlockHex = "4801d8480fafc3"

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// uniqueBlock is "mov eax, <imm32>" followed by the test block: a distinct
// cache key per imm with full analysis cost.
func uniqueBlock(t testing.TB, imm uint32) []byte {
	raw := []byte{0xb8, byte(imm), byte(imm >> 8), byte(imm >> 16), byte(imm >> 24)}
	return append(raw, mustHex(t, testBlockHex)...)
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil {
		engine, err := facile.NewEngine(facile.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = engine
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do performs one request against the handler and decodes the JSON reply
// into out (when out != nil), returning the status code.
func do(t *testing.T, s *Server, method, path string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

// predictBody is the /v1/analyze request for the prediction view of br.
func predictBody(br BlockRequest) AnalyzeRequest {
	return AnalyzeRequest{BlockRequest: br, Detail: "prediction"}
}

func TestPredict(t *testing.T) {
	s := newTestServer(t, Config{})
	var resp facile.Analysis
	code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL", Mode: "loop"}), &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	pred := resp.Prediction
	if pred.CyclesPerIteration <= 0 {
		t.Errorf("non-positive throughput: %v", pred.CyclesPerIteration)
	}
	if pred.Arch != "SKL" || pred.Mode != facile.Loop {
		t.Errorf("echoed arch/mode: %q/%q", pred.Arch, pred.Mode)
	}
	if len(pred.Bottlenecks) == 0 || len(pred.Instructions) != 2 {
		t.Errorf("bottlenecks %v, instructions %v", pred.Bottlenecks, pred.Instructions)
	}
	if len(resp.Bounds) == 0 {
		t.Error("empty bounds")
	}

	// The same block via base64 must agree, and default mode is loop.
	raw, _ := hex.DecodeString(testBlockHex)
	var resp64 facile.Analysis
	code = do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{CodeB64: base64.StdEncoding.EncodeToString(raw), Arch: "SKL"}), &resp64)
	if code != 200 {
		t.Fatalf("base64 status %d", code)
	}
	pred64 := resp64.Prediction
	if pred64.CyclesPerIteration != pred.CyclesPerIteration || pred64.Mode != facile.Loop {
		t.Errorf("base64/default-mode mismatch: %+v vs %+v", pred64, pred)
	}
}

func TestPredictMatchesLibrary(t *testing.T) {
	s := newTestServer(t, Config{})
	raw, _ := hex.DecodeString(testBlockHex)
	wantAna, err := facile.DefaultEngine().Analyze(context.Background(),
		facile.Request{Code: raw, Arch: "SKL", Mode: facile.Loop})
	if err != nil {
		t.Fatal(err)
	}
	want := wantAna.Prediction
	var resp facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL", Mode: "loop"}), &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if pred := resp.Prediction; pred.CyclesPerIteration != want.CyclesPerIteration {
		t.Errorf("server %v != library %v", pred.CyclesPerIteration, want.CyclesPerIteration)
	}
}

func TestPredictValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
		msg  string
	}{
		{"bad hex", predictBody(BlockRequest{Code: "zz", Arch: "SKL"}), 400, "invalid hex"},
		{"bad base64", predictBody(BlockRequest{CodeB64: "!!", Arch: "SKL"}), 400, "invalid base64"},
		{"both encodings", predictBody(BlockRequest{Code: "90", CodeB64: "kA==", Arch: "SKL"}), 400, "not both"},
		{"no code", predictBody(BlockRequest{Arch: "SKL"}), 400, "facile: empty basic block"},
		{"empty code", predictBody(BlockRequest{Code: "", CodeB64: "", Arch: "SKL"}), 400, "facile: empty basic block"},
		{"missing arch", predictBody(BlockRequest{Code: "90"}), 400, "missing \"arch\""},
		{"unknown arch", predictBody(BlockRequest{Code: "90", Arch: "ZEN4"}), 400, "unknown microarchitecture"},
		{"bad mode", predictBody(BlockRequest{Code: "90", Arch: "SKL", Mode: "sideways"}), 400, "invalid mode"},
		{"undecodable block", predictBody(BlockRequest{Code: "ffffffffffff", Arch: "SKL"}), 400, ""},
		{"not json", "{", 400, "invalid request body"},
		{"unknown field", `{"kode":"90","arch":"SKL"}`, 400, "invalid request body"},
		{"trailing data", `{"code":"90","arch":"SKL"} {}`, 400, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp ErrorResponse
			code := do(t, s, "POST", "/v1/analyze", tc.body, &resp)
			if code != tc.want {
				t.Fatalf("status %d, want %d (error %q)", code, tc.want, resp.Error)
			}
			if resp.Error == "" {
				t.Fatal("missing error message")
			}
			if tc.msg != "" && !strings.Contains(resp.Error, tc.msg) {
				t.Errorf("error %q does not mention %q", resp.Error, tc.msg)
			}
		})
	}
}

// TestBlockTooLarge: the block limit is the engine's MaxCodeBytes, answered
// with the engine's error.
func TestBlockTooLarge(t *testing.T) {
	engine, err := facile.NewEngine(facile.EngineConfig{MaxCodeBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine})
	var resp ErrorResponse
	code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: "9090909090", Arch: "SKL"}), &resp)
	const want = "facile: basic block is 5 bytes; the limit is 4 (EngineConfig.MaxCodeBytes)"
	if code != 400 || resp.Error != want {
		t.Fatalf("status %d, error %q; want 400, %q", code, resp.Error, want)
	}
}

// TestOneValidationBoundary: the server decodes the wire and the engine
// judges the block. For each request, /v1/analyze, a /v1/predict/batch item
// and a /v1/sweep block answer with Engine.Analyze's error for the same
// request, or with encoding/hex's for a block that is not hex.
func TestOneValidationBoundary(t *testing.T) {
	newEngine := func(cfg facile.EngineConfig) *facile.Engine {
		cfg.MaxCodeBytes = 8
		e, err := facile.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	open, sklOnly := newEngine(facile.EngineConfig{}), newEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	cases := []struct {
		name   string
		engine *facile.Engine
		code   string
		arch   string
	}{
		{"unknown arch", open, "4801d8", "ZEN4"},
		{"unknown arch, restricted engine", sklOnly, "4801d8", "ZEN4"},
		{"arch outside a restricted engine", sklOnly, "4801d8", "ICL"},
		{"empty block", open, "", "SKL"},
		{"block over MaxCodeBytes", open, strings.Repeat("90", 9), "SKL"},
		{"odd hex", open, "4801d", "SKL"},
		{"invalid hex", open, "48zz", "SKL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			if code, err := hex.DecodeString(tc.code); err != nil {
				want = err.Error()
			} else if _, err := tc.engine.Analyze(context.Background(),
				facile.Request{Code: code, Arch: tc.arch, Mode: facile.Loop}); err != nil {
				want = err.Error()
			} else {
				t.Fatal("the engine accepts the request")
			}
			s := newTestServer(t, Config{Engine: tc.engine})

			var one ErrorResponse
			if code := do(t, s, "POST", "/v1/analyze", predictBody(BlockRequest{Code: tc.code, Arch: tc.arch}), &one); code != 400 || !strings.Contains(one.Error, want) {
				t.Errorf("/v1/analyze: %d %q, want 400 containing %q", code, one.Error, want)
			}

			var batch BatchResponse
			body := BatchRequest{Requests: []BlockRequest{{Code: "4801d8", Arch: "SKL"}, {Code: tc.code, Arch: tc.arch}}}
			if code := do(t, s, "POST", "/v1/predict/batch", body, &batch); code != 200 || len(batch.Results) != 2 {
				t.Fatalf("/v1/predict/batch: %d, %d results", code, len(batch.Results))
			}
			if got := batch.Results[1]; got.Prediction != nil || !strings.Contains(got.Error, want) {
				t.Errorf("/v1/predict/batch item: %+v, want an error containing %q", got, want)
			}
			if batch.Results[0].Prediction == nil {
				t.Errorf("/v1/predict/batch: the valid sibling failed: %q", batch.Results[0].Error)
			}

			var sw ErrorResponse
			grid := fmt.Sprintf(`{"base":%q,"axes":[]}`, tc.arch)
			if code := do(t, s, "POST", "/v1/sweep", json.RawMessage(sweepBody(t, grid, []string{tc.code}, nil)), &sw); code != 400 || !strings.Contains(sw.Error, want) {
				t.Errorf("/v1/sweep: %d %q, want 400 containing %q", code, sw.Error, want)
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	body := fmt.Sprintf(`{"code":%q,"arch":"SKL"}`, strings.Repeat("90", 100))
	var resp ErrorResponse
	code := do(t, s, "POST", "/v1/analyze", body, &resp)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, error %q", code, resp.Error)
	}
}

func TestMethodAndPath(t *testing.T) {
	s := newTestServer(t, Config{})
	if code := do(t, s, "GET", "/v1/analyze", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: %d", code)
	}
	// The single-block views folded into /v1/analyze are not served.
	for _, path := range []string{"/v1/predict", "/v1/explain", "/v1/speedups"} {
		if code := do(t, s, "POST", path, BlockRequest{Code: testBlockHex, Arch: "SKL"}, nil); code != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404", path, code)
		}
	}
	if code := do(t, s, "GET", "/v1/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/nope: %d", code)
	}
}

func TestPredictBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	req := BatchRequest{
		Requests: []BlockRequest{
			{Code: testBlockHex, Arch: "SKL", Mode: "loop"},
			{Code: "zz", Arch: "SKL"},                       // invalid hex
			{Code: testBlockHex, Arch: "RKL", Mode: "tpu"},  // alias mode
			{Code: "ffffffffffff", Arch: "SKL"},             // undecodable
			{Code: testBlockHex, Arch: "SKL", Mode: "loop"}, // duplicate of [0]
		},
		Concurrency: 2,
	}
	var resp BatchResponse
	if code := do(t, s, "POST", "/v1/predict/batch", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != len(req.Requests) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(req.Requests))
	}
	for i, ok := range []bool{true, false, true, false, true} {
		res := resp.Results[i]
		if ok && (res.Prediction == nil || res.Error != "") {
			t.Errorf("result %d: want prediction, got error %q", i, res.Error)
		}
		if !ok && (res.Prediction != nil || res.Error == "") {
			t.Errorf("result %d: want error, got %+v", i, res.Prediction)
		}
	}
	if resp.Results[0].Prediction.CyclesPerIteration != resp.Results[4].Prediction.CyclesPerIteration {
		t.Error("duplicate requests disagree")
	}
	if resp.Results[2].Prediction.Mode != facile.Unroll {
		t.Errorf("tpu alias: mode %q", resp.Results[2].Prediction.Mode)
	}

	var errResp ErrorResponse
	if code := do(t, s, "POST", "/v1/predict/batch", BatchRequest{}, &errResp); code != 400 {
		t.Errorf("empty batch: status %d", code)
	}
	if code := do(t, s, "POST", "/v1/predict/batch",
		BatchRequest{Requests: req.Requests, Concurrency: -1}, &errResp); code != 400 {
		t.Errorf("negative concurrency: status %d", code)
	}
}

func TestPredictBatchItemLimit(t *testing.T) {
	s := newTestServer(t, Config{MaxBatchItems: 2})
	req := BatchRequest{Requests: make([]BlockRequest, 3)}
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/predict/batch", req, &resp); code != 400 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(resp.Error, "limit is 2") {
		t.Errorf("error %q", resp.Error)
	}
}

func TestExplainAndSpeedups(t *testing.T) {
	s := newTestServer(t, Config{})
	block := BlockRequest{Code: testBlockHex, Arch: "SKL", Mode: "loop"}
	var exp facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		AnalyzeRequest{BlockRequest: block, Detail: "full"}, &exp); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	if !strings.Contains(exp.ReportText, "Facile throughput report") ||
		!strings.Contains(exp.ReportText, "Counterfactual speedups") {
		t.Errorf("report: %q", exp.ReportText)
	}
	if exp.Prediction.CyclesPerIteration <= 0 {
		t.Error("explain prediction missing")
	}

	var sp facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		AnalyzeRequest{BlockRequest: block, Detail: "speedups"}, &sp); code != 200 {
		t.Fatalf("speedups status %d", code)
	}
	if len(sp.Speedups) == 0 {
		t.Error("empty speedups")
	}
	if sp.Prediction.CyclesPerIteration != exp.Prediction.CyclesPerIteration {
		t.Error("speedups/explain disagree on throughput")
	}
	for _, v := range sp.Speedups {
		if v.Factor < 1 {
			t.Errorf("speedup %s = %v < 1", v.Component, v.Factor)
		}
	}
}

func TestArchsAndHealthz(t *testing.T) {
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL", "RKL"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine})
	var archs ArchsResponse
	if code := do(t, s, "GET", "/v1/archs", nil, &archs); code != 200 {
		t.Fatalf("archs status %d", code)
	}
	if len(archs.Archs) != 2 {
		t.Fatalf("got %d archs, want 2: %+v", len(archs.Archs), archs)
	}
	for _, a := range archs.Archs {
		if a.Name != "SKL" && a.Name != "RKL" {
			t.Errorf("unexpected arch %+v", a)
		}
		if a.FullName == "" || a.Released == 0 {
			t.Errorf("incomplete arch info %+v", a)
		}
	}

	// An arch the engine does not serve is a 400, even though it exists.
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: "90", Arch: "SNB"}), &resp); code != 400 {
		t.Errorf("unserved arch: status %d", code)
	}

	var health map[string]string
	if code := do(t, s, "GET", "/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Errorf("healthz: %v %v", code, health)
	}
}

func TestMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/v1/analyze", predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), nil)
	do(t, s, "POST", "/v1/analyze", predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), nil)
	do(t, s, "POST", "/v1/analyze", predictBody(BlockRequest{Code: "zz", Arch: "SKL"}), nil)

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`facile_requests_total{endpoint="POST /v1/analyze",code="200"} 2`,
		`facile_requests_total{endpoint="POST /v1/analyze",code="400"} 1`,
		`facile_request_seconds_bucket{endpoint="POST /v1/analyze",le="+Inf"} 3`,
		"facile_engine_cache_hits_total 1",
		"facile_engine_cache_misses_total 1",
		"facile_engine_cache_entries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

func TestGracefulClose(t *testing.T) {
	s := newTestServer(t, Config{})
	// A request before Close succeeds...
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), nil); code != 200 {
		t.Fatalf("pre-close status %d", code)
	}
	s.Close()
	s.Close() // idempotent
	// ...and a request after Close is a clean 503.
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), &resp); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d (error %q)", code, resp.Error)
	}
}

// TestManyClientsDistinctMisses: concurrent clients sending distinct,
// uncached blocks each get exactly their own analysis — every response is
// 200 and byte-identical to the rendering of an uncached Engine.Analyze of
// the same block.
func TestManyClientsDistinctMisses(t *testing.T) {
	const (
		clients = 16
		perC    = 25
	)
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine})
	bodies := make([][]byte, clients*perC)
	want := make([][]byte, clients*perC)
	for i := range bodies {
		code := uniqueBlock(t, uint32(i))
		bodies[i] = []byte(fmt.Sprintf(`{"code":"%x","arch":"SKL","mode":"loop","detail":"full"}`, code))
		ana, err := uncached.Analyze(context.Background(),
			facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, ana)
		want[i] = w.Body.Bytes()
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * perC; i < (c+1)*perC; i++ {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(bodies[i])))
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("block %d: status %d: %s", i, w.Code, w.Body.String())
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want[i]) {
					errs <- fmt.Errorf("block %d: response differs from the uncached analysis:\n%s\nwant:\n%s",
						i, w.Body.Bytes(), want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := engine.Stats(); st.Misses != clients*perC {
		t.Errorf("engine misses = %d, want %d (one per distinct block)", st.Misses, clients*perC)
	}
}

func TestRequestTimeout(t *testing.T) {
	// With a negative timeout the deadline machinery is off; with a tiny
	// positive one, a request whose block is not cached times out as 504
	// before the engine computes it.
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine, RequestTimeout: time.Nanosecond})
	var resp ErrorResponse
	code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), &resp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (error %q), want 504", code, resp.Error)
	}
}

func TestBatchRequestTimeout(t *testing.T) {
	// The batch endpoint must observe the request deadline too: a batch
	// past its deadline returns 504 instead of computing to completion.
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine, RequestTimeout: time.Nanosecond})
	req := BatchRequest{Requests: []BlockRequest{{Code: testBlockHex, Arch: "SKL"}}}
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/predict/batch", req, &resp); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (error %q), want 504", code, resp.Error)
	}
}

func TestNewRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without engine succeeded")
	}
}

func TestServedOverHTTP(t *testing.T) {
	// End-to-end over a real listener: the wiring cmd/facile-serve uses.
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"code":"4801d8480fafc3","arch":"SKL","mode":"loop","detail":"prediction"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ana facile.Analysis
	if err := json.NewDecoder(resp.Body).Decode(&ana); err != nil {
		t.Fatal(err)
	}
	if ana.Prediction.CyclesPerIteration <= 0 {
		t.Errorf("bad prediction %+v", ana.Prediction)
	}
}
