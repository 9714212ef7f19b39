package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"facile"
	"facile/internal/sweep"
)

// testGrid is a 6-point SKL grid: issue_width x lsd_enabled.
const testGrid = `{"base":"SKL","axes":[
	{"param":"issue_width","values":[2,4,6]},
	{"param":"lsd_enabled","values":[false,true]}]}`

func sweepBody(t *testing.T, grid string, blocks []string, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{
		"grid":   json.RawMessage(grid),
		"blocks": blocks,
	}
	for k, v := range extra {
		req[k] = v
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// doRaw performs one request and returns status and raw body bytes, for
// byte-level determinism checks.
func doRaw(t *testing.T, s *Server, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

var sweepBlocks = []string{
	"480fafc34829d875f5", // imul+sub loop: precedence-bound
	"4801d84829d8",       // two ALU ops
	testBlockHex,
}

func TestSweep(t *testing.T) {
	s := newTestServer(t, Config{})
	var res sweep.Result
	code := do(t, s, "POST", "/v1/sweep",
		json.RawMessage(sweepBody(t, testGrid, sweepBlocks, nil)), &res)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if res.Base != "SKL" || res.Points != 6 || res.Blocks != len(sweepBlocks) {
		t.Fatalf("result header: %+v", res)
	}
	if len(res.Variants)+len(res.Failed) != 6 {
		t.Fatalf("variants %d + failed %d != 6", len(res.Variants), len(res.Failed))
	}
	for i, v := range res.Variants {
		if v.Rank != i+1 {
			t.Errorf("variant %d has rank %d", i, v.Rank)
		}
		if i > 0 && v.GeomeanSpeedup > res.Variants[i-1].GeomeanSpeedup {
			t.Errorf("frontier not sorted at rank %d", v.Rank)
		}
		if len(v.Shifts) == 0 {
			t.Errorf("variant %s has no bottleneck shifts", v.Name)
		}
	}
	if res.BaseGeomeanCycles <= 0 {
		t.Errorf("base geomean %v", res.BaseGeomeanCycles)
	}

	// top truncates the frontier but not the sweep.
	var topped sweep.Result
	code = do(t, s, "POST", "/v1/sweep",
		json.RawMessage(sweepBody(t, testGrid, sweepBlocks, map[string]any{"top": 2})), &topped)
	if code != 200 || len(topped.Variants) != 2 || topped.Points != 6 {
		t.Fatalf("top=2: status %d, variants %d, points %d", code, len(topped.Variants), topped.Points)
	}
	if topped.Variants[0].Name != res.Variants[0].Name {
		t.Errorf("top=2 winner %q != full winner %q", topped.Variants[0].Name, res.Variants[0].Name)
	}
}

// TestSweepDeterministicAcrossWorkers: the wire payload is byte-identical
// at every worker count — the acceptance property, observed end to end.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	s := newTestServer(t, Config{})
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		body := sweepBody(t, testGrid, sweepBlocks, map[string]any{"workers": workers})
		code, got := doRaw(t, s, "POST", "/v1/sweep", body)
		if code != 200 {
			t.Fatalf("workers=%d: status %d: %s", workers, code, got)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: response bytes differ from workers=1", workers)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	engine, err := facile.NewEngine(facile.EngineConfig{MaxCodeBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine, MaxSweepPoints: 4})
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"missing grid", []byte(`{"blocks":["90"]}`), `missing "grid"`},
		{"grid typo", sweepBody(t, `{"base":"SKL","axis":[]}`, []string{"90"}, nil), "invalid grid"},
		{"identity axis", sweepBody(t, `{"base":"SKL","axes":[{"param":"name","values":["X"]}]}`, []string{"90"}, nil), "identity field"},
		{"unknown base", sweepBody(t, `{"base":"ZEN4","axes":[]}`, []string{"90"}, nil), `sweep: base "ZEN4", block 0: uarch: unknown microarchitecture "ZEN4"`},
		{"too many points", sweepBody(t, `{"base":"SKL","axes":[{"param":"issue_width","values":[1,2,3,4,5]}]}`, []string{"90"}, nil), "the limit is 4"},
		{"bad mode", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{"90"}, map[string]any{"mode": "sideways"}), "invalid mode"},
		{"empty blocks", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{}, nil), `empty "blocks"`},
		{"bad hex", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{"90", "zz"}, nil), "blocks[1]: invalid hex"},
		{"empty block", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{"90", ""}, nil), `block 1: facile: empty basic block`},
		{"oversized block", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{strings.Repeat("90", 17)}, nil),
			"block 0: facile: basic block is 17 bytes; the limit is 16 (EngineConfig.MaxCodeBytes)"},
		{"negative workers", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{"90"}, map[string]any{"workers": -1}), `negative "workers"`},
		{"negative top", sweepBody(t, `{"base":"SKL","axes":[]}`, []string{"90"}, map[string]any{"top": -1}), `negative "top"`},
		{"unknown field", []byte(`{"grid":{"base":"SKL"},"blocks":["90"],"konkurrency":2}`), "invalid request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp ErrorResponse
			code := do(t, s, "POST", "/v1/sweep", json.RawMessage(tc.body), &resp)
			if code != 400 {
				t.Fatalf("status %d, error %q", code, resp.Error)
			}
			if !strings.Contains(resp.Error, tc.want) {
				t.Errorf("error %q does not mention %q", resp.Error, tc.want)
			}
		})
	}
}

// TestSweepAbandoned: an abandoned request (context cancelled while the
// sweep runs) maps to 499, the nginx client-closed-request convention.
func TestSweepAbandoned(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the handler starts
	body := sweepBody(t, testGrid, sweepBlocks, nil)
	req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 499 {
		t.Fatalf("status %d, want 499 (body %s)", w.Code, w.Body.String())
	}
}

// TestSweepMetrics: completed sweeps move the points/analyses counters;
// rejected ones do not.
func TestSweepMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	read := func() string {
		code, body := doRaw(t, s, "GET", "/metrics", nil)
		if code != 200 {
			t.Fatalf("metrics status %d", code)
		}
		return string(body)
	}
	before := read()
	if !strings.Contains(before, "facile_sweep_points_total 0") ||
		!strings.Contains(before, "facile_sweep_analyses_total 0") {
		t.Fatalf("fresh counters missing:\n%s", before)
	}
	if code := do(t, s, "POST", "/v1/sweep",
		json.RawMessage(sweepBody(t, testGrid, sweepBlocks, nil)), nil); code != 200 {
		t.Fatalf("sweep status %d", code)
	}
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/sweep", json.RawMessage([]byte(`{"blocks":["90"]}`)), &resp); code != 400 {
		t.Fatalf("invalid sweep status %d", code)
	}
	after := read()
	if !strings.Contains(after, "facile_sweep_points_total 6") ||
		!strings.Contains(after, "facile_sweep_analyses_total 18") {
		t.Fatalf("counters after one 6-point x 3-block sweep:\n%s", after)
	}
}
