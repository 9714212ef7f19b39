package server

import (
	"fmt"
	"testing"

	"facile"
)

// newRegistryServer builds a server whose engine resolves arches from a
// fresh registry, isolated from the process default (registration tests
// must not pollute other tests' arch namespace).
func newRegistryServer(t *testing.T, cfg facile.EngineConfig) (*Server, *facile.Engine) {
	t.Helper()
	cfg.Registry = facile.NewArchRegistry()
	engine, err := facile.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Engine: engine})
	return s, engine
}

func TestArchsIntrospection(t *testing.T) {
	s, _ := newRegistryServer(t, facile.EngineConfig{})
	var archs ArchsResponse
	if code := do(t, s, "GET", "/v1/archs", nil, &archs); code != 200 {
		t.Fatalf("archs status %d", code)
	}
	if len(archs.Archs) != 9 {
		t.Fatalf("got %d archs, want 9", len(archs.Archs))
	}
	for _, a := range archs.Archs {
		if a.Gen == "" || a.IssueWidth == 0 || a.IDQSize == 0 || a.NumPorts == 0 {
			t.Errorf("arch %s misses pipeline parameters: %+v", a.Name, a)
		}
	}
	if skl := archs.Archs[4]; skl.Name != "SKL" || skl.LSDEnabled || skl.IssueWidth != 4 {
		t.Errorf("SKL wire info wrong: %+v", skl)
	}
}

// TestRegisterArchServedWithoutRestart is the acceptance path: register a
// variant over HTTP, then predict on it immediately — listed, predictable,
// and warm on the second query.
func TestRegisterArchServedWithoutRestart(t *testing.T) {
	s, engine := newRegistryServer(t, facile.EngineConfig{})

	// Before registration the arch is an unknown-arch 400.
	var errResp ErrorResponse
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL-LSD"}), &errResp); code != 400 {
		t.Fatalf("pre-registration predict: status %d", code)
	}

	var reg RegisterArchResponse
	code := do(t, s, "POST", "/v1/archs",
		`{"name": "SKL-LSD", "base": "SKL", "overlay": {"lsd_enabled": true}}`, &reg)
	if code != 200 {
		t.Fatalf("register status %d", code)
	}
	if reg.Arch.Name != "SKL-LSD" || !reg.Arch.LSDEnabled || reg.Arch.Gen != "SKL" {
		t.Fatalf("registered arch info wrong: %+v", reg.Arch)
	}

	// Immediately listed.
	var archs ArchsResponse
	do(t, s, "GET", "/v1/archs", nil, &archs)
	if len(archs.Archs) != 10 || archs.Archs[9].Name != "SKL-LSD" {
		t.Fatalf("registered arch not listed: %+v", archs.Archs)
	}

	// Immediately predictable, and the repeat query is a warm cache hit.
	var r1, r2 facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL-LSD"}), &r1); code != 200 {
		t.Fatalf("post-registration predict: status %d", code)
	}
	before := engine.Stats()
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL-LSD"}), &r2); code != 200 {
		t.Fatalf("repeat predict: status %d", code)
	}
	after := engine.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("repeat predict on a registered arch missed the cache: %+v -> %+v", before, after)
	}
	if p1, p2 := r1.Prediction, r2.Prediction; p1.CyclesPerIteration != p2.CyclesPerIteration || p1.Arch != "SKL-LSD" {
		t.Fatalf("predictions diverge: %+v vs %+v", p1, p2)
	}
}

func TestRegisterArchFullSpec(t *testing.T) {
	s, _ := newRegistryServer(t, facile.EngineConfig{})
	// A full spec document wrapped in "spec"; base-overlay form inside the
	// document is allowed too.
	var reg RegisterArchResponse
	code := do(t, s, "POST", "/v1/archs",
		`{"spec": {"name": "ICL-4W", "base": "ICL", "issue_width": 4, "retire_width": 4}}`, &reg)
	if code != 200 {
		t.Fatalf("register status %d", code)
	}
	if reg.Arch.IssueWidth != 4 || reg.Arch.NumPorts != 10 {
		t.Fatalf("spec-form registration wrong: %+v", reg.Arch)
	}
	var r facile.Analysis
	if code := do(t, s, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "icl-4w"}), &r); code != 200 || r.Prediction.Arch != "ICL-4W" {
		t.Fatalf("predict on spec-form arch: status %d, %+v", code, r.Prediction)
	}
}

func TestRegisterArchRejections(t *testing.T) {
	s, _ := newRegistryServer(t, facile.EngineConfig{})
	cases := []struct {
		name    string
		body    string
		want    int
		wantErr string // the error text, when pinned
	}{
		{"empty", `{}`, 400, ""},
		{"both shapes", `{"spec": {"name":"A"}, "base": "SKL"}`, 400, ""},
		{"variant without name", `{"base": "SKL"}`, 400, ""},
		{"unknown base", `{"name": "A", "base": "P4"}`, 400, ""},
		{"invalid overlay field", `{"name": "A", "base": "SKL", "overlay": {"lsd_enable": true}}`, 400, ""},
		{"invalid overlay value", `{"name": "A", "base": "SKL", "overlay": {"issue_width": 0}}`, 400, ""},
		{"bad port mask", `{"name": "A", "base": "SKL", "overlay": {"role_ports": {"load": [11]}}}`, 400, ""},
		{"duplicate builtin", `{"name": "skl", "base": "SKL"}`, 409, ""},
		{"float width in a spec", `{"spec": {"name": "A", "gen": "SKL", "issue_width": 4.0}}`, 400,
			"uarch: invalid spec: issue_width: want an integer, got number 4.0"},
		{"float width in an overlay", `{"name": "A", "base": "SKL", "overlay": {"issue_width": 4.0}}`, 400,
			"uarch: invalid spec: issue_width: want an integer, got number 4.0"},
		{"spec not an object", `{"spec": ["SKL"]}`, 400, "uarch: spec must be a JSON object, got array"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp ErrorResponse
			if code := do(t, s, "POST", "/v1/archs", tc.body, &resp); code != tc.want {
				t.Fatalf("status %d (%s), want %d", code, resp.Error, tc.want)
			}
			if resp.Error == "" {
				t.Fatal("error body missing")
			}
			if tc.wantErr != "" && resp.Error != tc.wantErr {
				t.Fatalf("error %q, want %q", resp.Error, tc.wantErr)
			}
		})
	}
	// Registering the same variant twice: first 200, then 409.
	body := `{"name": "DUP", "base": "SKL"}`
	if code := do(t, s, "POST", "/v1/archs", body, nil); code != 200 {
		t.Fatalf("first register: %d", code)
	}
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/archs", body, &resp); code != 409 {
		t.Fatalf("duplicate register: %d (%s)", code, resp.Error)
	}
}

func TestRegisterArchRestrictedServer(t *testing.T) {
	s, _ := newRegistryServer(t, facile.EngineConfig{Archs: []string{"SKL"}})
	var resp ErrorResponse
	if code := do(t, s, "POST", "/v1/archs",
		`{"name": "A", "base": "SKL"}`, &resp); code != 403 {
		t.Fatalf("restricted register: status %d (%s)", code, resp.Error)
	}
}

// TestConcurrentRegisterAndPredictHTTP races registrations against predict
// traffic through the full HTTP stack (meaningful under -race).
func TestConcurrentRegisterAndPredictHTTP(t *testing.T) {
	s, _ := newRegistryServer(t, facile.EngineConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			body := fmt.Sprintf(`{"name": "R%d", "base": "RKL", "overlay": {"idq_size": %d}}`, i, 60+i)
			if code := do(t, s, "POST", "/v1/archs", body, nil); code != 200 {
				t.Errorf("register R%d: %d", i, code)
				return
			}
			if code := do(t, s, "POST", "/v1/analyze",
				predictBody(BlockRequest{Code: testBlockHex, Arch: fmt.Sprintf("R%d", i)}), nil); code != 200 {
				t.Errorf("predict R%d: %d", i, code)
				return
			}
		}
	}()
	for i := 0; i < 64; i++ {
		if code := do(t, s, "POST", "/v1/analyze",
			predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), nil); code != 200 {
			t.Fatalf("predict SKL: %d", code)
		}
	}
	<-done
}
