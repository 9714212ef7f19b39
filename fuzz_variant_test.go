package facile_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"facile"
)

// FuzzDeriveVariant: an overlay is untrusted JSON on POST /v1/archs and, as
// a sweep grid's design point, on POST /v1/sweep. DeriveVariant must never
// panic. An accepted variant's spec is the document that recreates it, so
// deriving from it as an overlay gives the same spec back, and analyzing a
// few fixed blocks against the variant, in both modes, yields a positive
// prediction or a bad-request error for each. Each block is then analyzed
// in both modes on SKL and right after on the variant through one batch
// worker, which keeps whatever the overlay leaves alone, and every result
// must equal a fresh engine's: an arbitrary overlay must not get past the
// reuse keys. Seeds live in testdata/fuzz/FuzzDeriveVariant: the committed
// sweep grid's axes, every kind of field, and overlays the validator
// rejects.
func FuzzDeriveVariant(f *testing.F) {
	reg := facile.NewArchRegistry()
	eng, err := facile.NewEngine(facile.EngineConfig{Registry: reg, CacheSize: -1, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	var blocks [][]byte
	for _, h := range []string{
		"480fafc348ffc975f7",          // imul chain loop
		"4801d84829d84821d84809d8",    // four ALU ops
		"480307 4883c708 48ffc9 75f2", // load and add loop
		"c4e271b8c2",                  // vfmadd231ps
		"488b07 488903 90",            // load, store, nop
	} {
		blocks = append(blocks, decode(f, h))
	}
	f.Fuzz(func(t *testing.T, overlay []byte) {
		v, err := reg.DeriveVariant("FUZZ", "SKL", overlay)
		if err != nil {
			return
		}
		spec, err := v.Spec()
		if err != nil {
			t.Fatalf("accepted variant has no spec: %v", err)
		}
		again, err := reg.DeriveVariant("FUZZ", "SKL", spec)
		if err != nil {
			t.Fatalf("the variant's own spec does not derive: %v\n%s", err, spec)
		}
		if spec2, err := again.Spec(); err != nil || !bytes.Equal(spec2, spec) {
			t.Fatalf("the variant's spec derives another variant (%v):\n%s\nwant\n%s", err, spec2, spec)
		}
		var reqs []facile.Request
		for _, code := range blocks {
			for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
				reqs = append(reqs, facile.Request{Code: code, Mode: mode, Variant: v})
			}
		}
		for i, r := range eng.AnalyzeBatchN(context.Background(), reqs, 1) {
			switch {
			case r.Err != nil && !errors.Is(r.Err, facile.ErrBadRequest):
				t.Fatalf("request %d: unclassified error %v", i, r.Err)
			case r.Err == nil && !(r.Analysis.Prediction.CyclesPerIteration > 0):
				t.Fatalf("request %d: prediction %g", i, r.Analysis.Prediction.CyclesPerIteration)
			}
		}
		reqs = pairRequests(blocks, facile.Request{Arch: "SKL"}, facile.Request{Variant: v})
		checkBatchFresh(t, eng, reg, reqs, "reuse")
	})
}
