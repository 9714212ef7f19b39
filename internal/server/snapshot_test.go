package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"facile"
)

// snapshotGet fetches the server's snapshot and returns the body plus the
// entry-count header.
func snapshotGet(t *testing.T, s *Server, query string) ([]byte, int) {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/cache/snapshot"+query, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET snapshot = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	n, err := strconv.Atoi(w.Header().Get("Facile-Snapshot-Entries"))
	if err != nil {
		t.Fatalf("Facile-Snapshot-Entries = %q", w.Header().Get("Facile-Snapshot-Entries"))
	}
	return w.Body.Bytes(), n
}

// TestSnapshotEndpointsRoundTrip: export from a warm server, import into a
// fresh one, and serve identical predictions from the imported cache.
func TestSnapshotEndpointsRoundTrip(t *testing.T) {
	src := newTestServer(t, Config{})
	var want facile.Analysis
	if code := do(t, src, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), &want); code != http.StatusOK {
		t.Fatalf("warming predict = %d", code)
	}
	body, n := snapshotGet(t, src, "")
	if n != 1 {
		t.Fatalf("exported %d entries, want 1", n)
	}

	dst := newTestServer(t, Config{})
	req := httptest.NewRequest("PUT", "/v1/cache/snapshot", bytes.NewReader(body))
	w := httptest.NewRecorder()
	dst.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("PUT snapshot = %d: %s", w.Code, w.Body.String())
	}
	var resp SnapshotImportResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Imported != 1 || resp.Skipped != 0 {
		t.Fatalf("import response = %+v, want 1 imported", resp)
	}

	// The imported entry serves without a miss.
	before := dst.engine.Stats()
	var got facile.Analysis
	if code := do(t, dst, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SKL"}), &got); code != http.StatusOK {
		t.Fatalf("predict after import = %d", code)
	}
	if got.Prediction.CyclesPerIteration != want.Prediction.CyclesPerIteration {
		t.Fatalf("imported prediction %v, want %v", got.Prediction.CyclesPerIteration, want.Prediction.CyclesPerIteration)
	}
	if st := dst.engine.Stats(); st.Misses != before.Misses {
		t.Fatal("serving an imported entry caused a cache miss")
	}
}

func TestSnapshotEndpointErrors(t *testing.T) {
	s := newTestServer(t, Config{})

	// Corrupt body: 400.
	req := httptest.NewRequest("PUT", "/v1/cache/snapshot", strings.NewReader("not a snapshot"))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("corrupt PUT = %d, want 400", w.Code)
	}

	// Version mismatch: snapshot from a registry whose arch this server
	// lacks -> 409.
	reg := facile.NewArchRegistry()
	if _, err := reg.Derive("SNAPSRV", "SKL", []byte(`{"issue_width": 2}`)); err != nil {
		t.Fatal(err)
	}
	otherEngine, err := facile.NewEngine(facile.EngineConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	other := newTestServer(t, Config{Engine: otherEngine})
	if code := do(t, other, "POST", "/v1/analyze",
		predictBody(BlockRequest{Code: testBlockHex, Arch: "SNAPSRV"}), nil); code != http.StatusOK {
		t.Fatalf("warming variant predict = %d", code)
	}
	body, _ := snapshotGet(t, other, "")
	req = httptest.NewRequest("PUT", "/v1/cache/snapshot", bytes.NewReader(body))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Fatalf("mismatched PUT = %d, want 409: %s", w.Code, w.Body.String())
	}

	// Bad max_bytes query: 400.
	req = httptest.NewRequest("GET", "/v1/cache/snapshot?max_bytes=nope", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad max_bytes = %d, want 400", w.Code)
	}
}

func TestSnapshotEndpointMaxBytes(t *testing.T) {
	s := newTestServer(t, Config{})
	blocks := []string{"4801d8", "480fafc3", "4801d8480fafc3", "48ffc9"}
	for _, code := range blocks {
		if rc := do(t, s, "POST", "/v1/analyze",
			predictBody(BlockRequest{Code: code, Arch: "SKL"}), nil); rc != http.StatusOK {
			t.Fatalf("warming %q = %d", code, rc)
		}
	}
	_, all := snapshotGet(t, s, "")
	if all != len(blocks) {
		t.Fatalf("full export = %d entries, want %d", all, len(blocks))
	}
	_, bounded := snapshotGet(t, s, "?max_bytes=2000")
	if bounded == 0 || bounded >= all {
		t.Fatalf("bounded export = %d entries, want strictly between 0 and %d", bounded, all)
	}
}
