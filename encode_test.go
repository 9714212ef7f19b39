package facile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"facile"
)

// jsonAppender is the encoding contract shared by Prediction and Analysis.
type jsonAppender interface {
	AppendJSON(dst []byte, prefix string) ([]byte, error)
}

// checkAppendJSON requires v.AppendJSON to append exactly what
// json.MarshalIndent(v, prefix, "  ") returns after the bytes already in
// dst, and to refuse exactly what it refuses, with the same error text and
// dst unchanged.
func checkAppendJSON(t *testing.T, name string, v jsonAppender, prefix string) {
	t.Helper()
	want, wantErr := json.MarshalIndent(v, prefix, "  ")
	head := []byte("head:")
	got, err := v.AppendJSON(head, prefix)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: AppendJSON error %v, encoding/json error %v", name, err, wantErr)
		}
		if string(got) != "head:" {
			t.Fatalf("%s: refused AppendJSON changed dst to %q", name, got)
		}
	case err != nil:
		t.Fatalf("%s: AppendJSON refused what encoding/json accepts: %v", name, err)
	case !bytes.Equal(got, append([]byte("head:"), want...)):
		t.Fatalf("%s: AppendJSON diverges from json.MarshalIndent at prefix %q\n got: %q\nwant: %q", name, prefix, got[len("head:"):], want)
	}
}

// fuzzBlocks are the engine-served blocks FuzzAppendJSON picks from: a
// ports-bound loop, a dependence chain with a critical chain, an unroll
// block with contended ports.
var fuzzBlocks = []string{"4801d8480fafc348ffc975f5", "480fafc0480fafc0", "4801d84801d94801da"}

// FuzzAppendJSON cross-checks Prediction.AppendJSON and Analysis.AppendJSON
// against json.MarshalIndent on predictions and analyses built from the
// input: strings with invalid UTF-8, control bytes, HTML characters and the
// JS line separators; ints; floats including NaN, the infinities, -0 and
// values at the 1e-6/1e21 thresholds; valid and invalid modes; nil, empty
// and filled slices; any prefix. It then encodes an engine-served
// prediction twice at the input's prefix, the second time from the entry's
// remembered bytes, and a modified copy of it. Seeds live in
// testdata/fuzz/FuzzAppendJSON.
func FuzzAppendJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b string, n int, x, y float64, mode int, prefix string, shape uint16) {
		p := facile.Prediction{
			CyclesPerIteration: x,
			Arch:               a,
			Mode:               facile.Mode(mode),
			Bottlenecks:        []string{b, a},
			Instructions:       []string{a, b, ""},
		}
		if shape&1 != 0 {
			p.FrontEndSource = b
		}
		if shape&2 != 0 {
			p.CriticalChain = []int{n, -n, 0}
		}
		if shape&4 != 0 {
			p.ContendedPorts = a
			p.ContendedInstrs = []int{n}
		}
		if shape&8 != 0 {
			p.Bottlenecks = nil
		}
		if shape&16 != 0 {
			p.Instructions = []string{}
		}
		if shape&32 != 0 {
			p.CriticalChain, p.ContendedInstrs = []int{}, []int{}
		}
		checkAppendJSON(t, "prediction", &p, prefix)

		ana := facile.Analysis{Prediction: p}
		if shape&64 == 0 {
			ana.Bounds = []facile.ComponentBound{{Component: a, Cycles: y, Bottleneck: shape&128 != 0}, {Component: b, Cycles: x}}
		} else if shape&128 != 0 {
			ana.Bounds = []facile.ComponentBound{}
		}
		if shape&256 != 0 {
			ana.Speedups = []facile.Speedup{{Component: b, Factor: y}, {Component: a, Factor: x}}
		} else if shape&512 != 0 {
			ana.Speedups = []facile.Speedup{}
		}
		if shape&1024 != 0 {
			ana.ReportText = a + "\n" + b
		}
		checkAppendJSON(t, "analysis", &ana, prefix)

		e, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: 4, CacheShards: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		req := facile.Request{
			Code: decode(t, fuzzBlocks[int(shape>>11)%len(fuzzBlocks)]),
			Arch: "SKL",
			Mode: facile.Mode(mode & 1),
		}
		served, err := e.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		sp := &served.Prediction
		checkAppendJSON(t, "served prediction", sp, prefix)
		checkAppendJSON(t, "served prediction, remembered", sp, prefix)
		checkAppendJSON(t, "served prediction, another prefix", sp, prefix+"\t")
		cp := *sp
		cp.Arch, cp.Instructions = a, []string{b}
		checkAppendJSON(t, "modified copy", &cp, prefix)
		req.Detail = facile.DetailFull
		full, err := e.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		checkAppendJSON(t, "served analysis", full, prefix)
	})
}

// TestAppendJSONConcurrentMemo has goroutines encode one cached prediction
// at two prefixes at once, racing to publish the entry's remembered bytes:
// every output must equal json.MarshalIndent at its prefix, whichever
// publication won. Run it under -race.
func TestAppendJSONConcurrentMemo(t *testing.T) {
	prefixes := []string{"      ", ""}
	for round := 0; round < 20; round++ {
		e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
		ana, err := e.Analyze(context.Background(),
			facile.Request{Code: decode(t, "480fafc0480fafc0"), Arch: "SKL", Mode: facile.Loop})
		if err != nil {
			t.Fatal(err)
		}
		p := &ana.Prediction
		var want [2][]byte
		for i, prefix := range prefixes {
			if want[i], err = json.MarshalIndent(p, prefix, "  "); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8*4)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					i := (g + k) % 2
					got, err := p.AppendJSON(nil, prefixes[i])
					if err != nil || !bytes.Equal(got, want[i]) {
						errs <- string(got)
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for got := range errs {
			t.Fatalf("round %d: concurrent AppendJSON wrote %q", round, got)
		}
	}
}

// TestAppendJSONCopyEncodesOwnFields: a caller's modified copy of a cached
// prediction shares the entry but not its address, so it encodes its
// own fields, before and after the entry remembers its bytes. The cached
// prediction itself is left as it was.
func TestAppendJSONCopyEncodesOwnFields(t *testing.T) {
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	ana, err := e.Analyze(context.Background(),
		facile.Request{Code: decode(t, "4801d8480fafc3"), Arch: "SKL", Mode: facile.Loop})
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "      "
	for _, remembered := range []bool{false, true} {
		if remembered {
			if _, err := ana.Prediction.AppendJSON(nil, prefix); err != nil {
				t.Fatal(err)
			}
		}
		cp := ana.Prediction
		cp.CyclesPerIteration += 1
		cp.Instructions = append([]string{"nop"}, cp.Instructions...)
		got, err := cp.AppendJSON(nil, prefix)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.MarshalIndent(&cp, prefix, "  ")
		if !bytes.Equal(got, want) {
			t.Errorf("remembered=%v: modified copy encodes as\n%s\nwant\n%s", remembered, got, want)
		}
		orig, _ := json.MarshalIndent(&ana.Prediction, prefix, "  ")
		if got, _ := ana.Prediction.AppendJSON(nil, prefix); !bytes.Equal(got, orig) {
			t.Errorf("remembered=%v: cached prediction encodes as\n%s\nwant\n%s", remembered, got, orig)
		}
	}
}

// TestAppendJSONRemembersOnlyCachedPredictions: remembering a cached
// prediction's bytes re-registers the entry's accounted size, and analyses
// that are not cache entries — an uncached engine's, the speedup and report
// views' — account nothing and encode afresh.
func TestAppendJSONRemembersOnlyCachedPredictions(t *testing.T) {
	code := decode(t, "480fafc0480fafc0")
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheShards: 1})
	ana, err := e.Analyze(context.Background(), facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().SizeBytes
	enc, err := ana.Prediction.AppendJSON(nil, "  ")
	if err != nil {
		t.Fatal(err)
	}
	if grew := e.Stats().SizeBytes - before; grew < int64(len(enc)) {
		t.Errorf("remembering %d encoded bytes grew the accounted size by %d", len(enc), grew)
	}
	full, err := e.Analyze(context.Background(), facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull})
	if err != nil {
		t.Fatal(err)
	}
	before = e.Stats().SizeBytes
	checkAppendJSON(t, "view prediction", &full.Prediction, "    ")
	checkAppendJSON(t, "view prediction", &full.Prediction, "")
	if after := e.Stats().SizeBytes; after != before {
		t.Errorf("encoding a view's prediction changed the accounted size %d -> %d", before, after)
	}

	uncached := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	priv, err := uncached.Analyze(context.Background(), facile.Request{Code: code, Arch: "SKL", Mode: facile.Loop})
	if err != nil {
		t.Fatal(err)
	}
	checkAppendJSON(t, "uncached prediction", &priv.Prediction, "  ")
	checkAppendJSON(t, "uncached prediction", &priv.Prediction, "")
}
