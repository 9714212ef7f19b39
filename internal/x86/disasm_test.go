package x86_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"facile/internal/bhive"
	"facile/internal/x86"
)

var updateDisasm = flag.Bool("update", false, "rewrite testdata/disasm.golden")

const (
	disasmGolden = "testdata/disasm.golden"
	// disasmBlocks is the number of generated blocks per bhive seed.
	disasmBlocks = 100
)

// disasmCorpus renders the golden's input set, one "hex<TAB>text" line per
// instruction: both variants (Code, then LoopCode) of the first
// disasmBlocks bhive blocks of seeds 1-3, then every block of the
// divergence corpus in file-name order.
func disasmCorpus(t *testing.T) []byte {
	t.Helper()
	var out []byte
	add := func(name string, code []byte) {
		insts, err := x86.DecodeBlock(code)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := range insts {
			out = hex.AppendEncode(out, insts[k].Raw)
			out = append(out, '\t')
			out = append(out, insts[k].String()...)
			out = append(out, '\n')
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, b := range bhive.GenerateBlocks(seed, disasmBlocks) {
			add(fmt.Sprintf("seed %d %s", seed, b.ID), b.Code)
			add(fmt.Sprintf("seed %d %s loop", seed, b.ID), b.LoopCode)
		}
	}
	files, err := filepath.Glob("../../testdata/divergence/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("divergence corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var entry struct{ Hex string }
		if err := json.Unmarshal(raw, &entry); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		code, err := hex.DecodeString(entry.Hex)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add(f, code)
	}
	return out
}

// TestDisasmGolden pins the instruction renderer byte for byte on the bhive
// and divergence blocks. The golden records the renderer's output before
// it was rewritten as an appender; a change to the text is a change to
// every Prediction.Instructions and report, so it must be deliberate.
func TestDisasmGolden(t *testing.T) {
	got := disasmCorpus(t)
	if *updateDisasm {
		if err := os.WriteFile(disasmGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(disasmGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", disasmGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines rendered, golden has %d", disasmGolden, len(gl), len(wl))
}
