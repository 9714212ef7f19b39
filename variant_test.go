package facile_test

import (
	"context"
	"fmt"
	"testing"

	"facile"
)

// TestDeriveVariantEphemeral: a variant is a fully validated design point —
// it predicts exactly like the same overlay registered via Derive — but it
// is invisible to name lookup and takes no registry slot.
func TestDeriveVariantEphemeral(t *testing.T) {
	// Unrestricted: the test registers a twin arch and analyzes against it,
	// in a private registry so reruns (-count=N) and the default-registry
	// tests stay independent.
	e := newTestEngine(t, facile.EngineConfig{Registry: facile.NewArchRegistry()})
	reg := e.Registry()
	code := decode(t, "4801d8 480fafc3 4829d8 480fafcb")
	ctx := context.Background()

	overlay := []byte(`{"issue_width": 6, "retire_width": 6}`)
	v, err := reg.DeriveVariant("SKL~iw6", "SKL", overlay)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "SKL~iw6" {
		t.Fatalf("variant name %q", v.Name())
	}
	if e.HasArch("SKL~iw6") || reg.Has("SKL~iw6") {
		t.Fatal("ephemeral variant leaked into name lookup")
	}
	before := len(reg.Archs()) // the built-ins; the variant must not join them

	// The ephemeral prediction must match the registered twin exactly, at
	// full detail.
	if _, err := reg.Derive("SKL-iw6-ref", "SKL", overlay); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Archs()); got != before+1 {
		t.Fatalf("registry has %d arches, want %d (only the twin registers)", got, before+1)
	}
	want, err := e.Analyze(ctx, facile.Request{
		Code: code, Arch: "SKL-iw6-ref", Mode: facile.Loop, Detail: facile.DetailFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.AnalyzeVariant(ctx, v, facile.Request{
		Code: code, Mode: facile.Loop, Detail: facile.DetailFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Prediction.CyclesPerIteration != want.Prediction.CyclesPerIteration {
		t.Errorf("variant TP %v != registered twin TP %v",
			got.Prediction.CyclesPerIteration, want.Prediction.CyclesPerIteration)
	}
	if len(got.Bounds) != len(want.Bounds) {
		t.Fatalf("bounds length %d != %d", len(got.Bounds), len(want.Bounds))
	}
	for i := range got.Bounds {
		if got.Bounds[i].Cycles != want.Bounds[i].Cycles ||
			got.Bounds[i].Bottleneck != want.Bounds[i].Bottleneck {
			t.Errorf("bound %s: %+v != %+v",
				got.Bounds[i].Component, got.Bounds[i], want.Bounds[i])
		}
	}
}

// TestDeriveVariantsBeyondRegistryCapacity: the registry caps registered
// arches at 1024 entries, but ephemeral variants take no slot — deriving
// and analyzing well past that cap must succeed and leave the registry
// untouched. This is the property the sweep subsystem depends on: a
// 2,000-point grid cannot exhaust the registry.
func TestDeriveVariantsBeyondRegistryCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("derives 1100 variants")
	}
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, Registry: facile.NewArchRegistry()})
	reg := e.Registry()
	code := decode(t, "4801d8")
	ctx := context.Background()
	before := len(reg.Archs())

	const n = 1100 // > the 1024-entry registry backstop
	for i := 0; i < n; i++ {
		overlay := []byte(fmt.Sprintf(`{"rob_size": %d}`, 200+i))
		v, err := reg.DeriveVariant(fmt.Sprintf("SKL~rob%d", 200+i), "SKL", overlay)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if i%97 != 0 {
			continue // spot-check analyses; deriving all is the point
		}
		ana, err := e.AnalyzeVariant(ctx, v, facile.Request{Code: code, Mode: facile.Loop})
		if err != nil {
			t.Fatalf("variant %d analyze: %v", i, err)
		}
		if ana.Prediction.CyclesPerIteration <= 0 {
			t.Fatalf("variant %d: non-positive TP", i)
		}
	}
	if got := len(reg.Archs()); got != before {
		t.Fatalf("registry grew from %d to %d arches after %d variants", before, got, n)
	}
	// Registration capacity is untouched: a registered derive still works.
	if _, err := reg.Derive("SKL-after", "SKL", nil); err != nil {
		t.Fatalf("registered Derive after variant storm: %v", err)
	}
}
