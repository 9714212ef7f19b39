package server

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// v1Path matches a /v1/... route path as the documents write it.
var v1Path = regexp.MustCompile(`/v1/[a-z0-9_/]*[a-z0-9_]`)

// TestRoutesDocumented keeps the route table and its two references in step:
// every registered pattern ("POST /v1/analyze") appears in docs/API.md and
// in the cmd/facile-serve usage comment, and neither names a /v1/... path
// the server does not register.
func TestRoutesDocumented(t *testing.T) {
	s := newTestServer(t, Config{})
	served := map[string]bool{}
	for _, rm := range s.routes {
		_, path, _ := strings.Cut(rm.name, " ")
		served[path] = true
	}
	for _, doc := range []string{
		filepath.Join("..", "..", "docs", "API.md"),
		filepath.Join("..", "..", "cmd", "facile-serve", "main.go"),
	} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Column alignment ("GET  /healthz") is not part of the pattern.
		text := strings.Join(strings.Fields(string(raw)), " ")
		for _, rm := range s.routes {
			if !strings.Contains(text, rm.name) {
				t.Errorf("%s does not document %q", doc, rm.name)
			}
		}
		for _, path := range v1Path.FindAllString(text, -1) {
			if !served[path] {
				t.Errorf("%s names %s, which the server does not register", doc, path)
			}
		}
	}
}
