package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"testing"

	"facile"
)

// TestWriteJSONMatchesEncoder pins -json's output byte for byte to what
// encoding/json's Encoder with a two-space indent writes for the same
// analysis, for one loop-mode and one unroll-mode block.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		hex  string
		mode facile.Mode
	}{
		{"4801d8480fafc348ffc975f5", facile.Loop},
		{"480fafc0480fafc04c8d0c58", facile.Unroll},
	} {
		code, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		ana, err := engine.Analyze(context.Background(), facile.Request{
			Code: code, Arch: "SKL", Mode: tc.mode, Detail: facile.DetailFull,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.hex, err)
		}
		var got, want bytes.Buffer
		if err := writeJSON(&got, ana); err != nil {
			t.Fatalf("%s: writeJSON: %v", tc.hex, err)
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ana); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s (%v): -json output differs from encoding/json\n got: %s\nwant: %s", tc.hex, tc.mode, got.Bytes(), want.Bytes())
		}
		if len(ana.Speedups) == 0 || ana.ReportText == "" {
			t.Errorf("%s: -json analysis lacks speedups or report text", tc.hex)
		}
	}
}
