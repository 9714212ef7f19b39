package facile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"facile"
	"facile/internal/asm"
	"facile/internal/bhive"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// freshAnalyze analyzes req on a new uncached engine over reg, whose miss
// scratch has built nothing before, so nothing from an earlier analysis
// can be reused.
func freshAnalyze(t testing.TB, reg *facile.ArchRegistry, req facile.Request) (*facile.Analysis, error) {
	t.Helper()
	e, err := facile.NewEngine(facile.EngineConfig{Registry: reg, CacheSize: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e.Analyze(context.Background(), req)
}

// checkBatchFresh analyzes reqs in order through one AnalyzeBatchN worker
// of eng and fails unless every result equals a fresh analysis of its
// request: the same error text, or a deeply equal Analysis.
func checkBatchFresh(t testing.TB, eng *facile.Engine, reg *facile.ArchRegistry, reqs []facile.Request, what string) {
	t.Helper()
	for i, r := range eng.AnalyzeBatchN(context.Background(), reqs, 1) {
		want, err := freshAnalyze(t, reg, reqs[i])
		if (err == nil) != (r.Err == nil) || (err != nil && err.Error() != r.Err.Error()) {
			t.Fatalf("%s, request %d: error %v, fresh %v", what, i, r.Err, err)
		}
		if err == nil && !facile.EqualAnalyses(r.Analysis, want) {
			t.Fatalf("%s, request %d (%x, %v): analysis\n%+v\nfresh\n%+v", what, i, reqs[i].Code, reqs[i].Mode, r.Analysis, want)
		}
	}
}

// pairRequests lists, block-major, each block in both modes on base and
// then on variant: the order in which a worker reuses most.
func pairRequests(blocks [][]byte, base, variant facile.Request) []facile.Request {
	var reqs []facile.Request
	for _, code := range blocks {
		for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
			for _, r := range []facile.Request{base, variant} {
				r.Code, r.Mode, r.Detail = code, mode, facile.DetailFull
				reqs = append(reqs, r)
			}
		}
	}
	return reqs
}

// reuseProbes are blocks whose analyses each spec field the descriptors
// depend on changes: FP add, multiply and FMA chains, eliminable GPR and
// vector moves, an indexed load that unlaminates, a fusible compare with a
// memory operand, an ADC chain whose µops differ before Broadwell, and a
// loop whose jump ends on a 32-byte boundary.
func reuseProbes() [][]byte {
	loop := func(body ...asm.Instr) []byte {
		body = append(body,
			asm.Mk(x86.DEC, 64, asm.R(x86.RCX)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)))
		return asm.MustEncodeBlock(body)
	}
	x0, x1 := asm.R(x86.X0), asm.R(x86.X1)
	jcc := bytes.Repeat([]byte{0x90}, 30)
	jcc = append(jcc, 0x75, 0xe0)
	return [][]byte{
		loop(asm.Mk(x86.ADDPS, 128, x0, x0)),
		loop(asm.Mk(x86.MULPS, 128, x0, x0)),
		loop(asm.Mk(x86.VFMADD231PS, 128, x0, x1, x1)),
		loop(asm.Mk(x86.MOV, 64, asm.R(x86.RBX), asm.R(x86.RAX)), asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.R(x86.RBX))),
		loop(asm.Mk(x86.MOVAPS, 128, x1, x0), asm.Mk(x86.ADDPS, 128, x0, x1)),
		loop(asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.MX(x86.RDI, x86.RCX, 8, 0)), asm.Mk(x86.ADD, 64, asm.R(x86.RAX), asm.MX(x86.RSI, x86.RCX, 8, 0))),
		asm.MustEncodeBlock([]asm.Instr{
			asm.Mk(x86.ADD, 64, asm.R(x86.RDI), asm.I(8)),
			asm.Mk(x86.CMP, 64, asm.R(x86.RAX), asm.M(x86.RDI, 0)),
			asm.MkCC(x86.JCC, x86.CondNE, 64, asm.I(-2)),
		}),
		loop(asm.Mk(x86.ADC, 64, asm.R(x86.RAX), asm.R(x86.RBX))),
		jcc,
	}
}

// fieldPerturbations holds, per spec field of uarch.Config (its JSON key),
// an overlay on SKL that changes that field alone; "name" changes the
// variant's name instead.
var fieldPerturbations = map[string]string{
	"name":                    `{}`,
	"full_name":               `{"full_name":"Skylake variant"}`,
	"cpu":                     `{"cpu":"Intel Core i7-6700K"}`,
	"released":                `{"released":2030}`,
	"gen":                     `{"gen":"HSW"}`,
	"predec_width":            `{"predec_width":2}`,
	"num_decoders":            `{"num_decoders":2}`,
	"iq_size":                 `{"iq_size":40}`,
	"dsb_width":               `{"dsb_width":2}`,
	"idq_size":                `{"idq_size":32}`,
	"lsd_enabled":             `{"lsd_enabled":true}`,
	"lsd_unroll_target":       `{"lsd_unroll_target":8}`,
	"jcc_erratum":             `{"jcc_erratum":false}`,
	"issue_width":             `{"issue_width":2}`,
	"retire_width":            `{"retire_width":8}`,
	"rob_size":                `{"rob_size":100}`,
	"sched_size":              `{"sched_size":50}`,
	"num_ports":               `{"num_ports":10}`,
	"macro_fusion":            `{"macro_fusion":false}`,
	"fusible_on_last_decoder": `{"fusible_on_last_decoder":false}`,
	"fuse_with_mem":           `{"fuse_with_mem":false}`,
	"move_elim_gpr":           `{"move_elim_gpr":false}`,
	"move_elim_vec":           `{"move_elim_vec":false}`,
	"unlaminate_indexed":      `{"unlaminate_indexed":false}`,
	"load_latency":            `{"load_latency":9}`,
	"fp_add_latency":          `{"fp_add_latency":7}`,
	"fp_mul_latency":          `{"fp_mul_latency":7}`,
	"fma_latency":             `{"fma_latency":7}`,
	"role_ports":              `{"role_ports":{"alu":[0,1],"branch":[6]}}`,
}

// TestReuseExact: whatever a worker keeps between consecutive analyses of
// one block — the decode, the descriptors, a component's last result — is
// exactly what a fresh analysis computes. For every field of uarch.Config,
// a variant of a SKL copy that changes that field alone is analyzed right
// after the copy, block by block in both modes through one worker, and
// every result must equal a fresh engine's. A field without a perturbation
// fails the test, so a new field cannot slip past the reuse keys.
func TestReuseExact(t *testing.T) {
	reg := facile.NewArchRegistry()
	derive := func(name, overlay string) *facile.Variant {
		v, err := reg.DeriveVariant(name, "SKL", []byte(overlay))
		if err != nil {
			t.Fatalf("%s %s: %v", name, overlay, err)
		}
		return v
	}
	specOf := func(v *facile.Variant) map[string]json.RawMessage {
		data, err := v.Spec()
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	base := derive("REUSE", `{}`)
	baseSpec := specOf(base)

	blocks := reuseProbes()
	for _, g := range bhive.GenerateBlocks(3, 80) {
		blocks = append(blocks, g.LoopCode)
	}
	eng, err := facile.NewEngine(facile.EngineConfig{Registry: reg, CacheSize: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(uarch.Config{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		field, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		seen[field] = true
		overlay, ok := fieldPerturbations[field]
		if !ok {
			t.Errorf("uarch.Config field %s (%q) has no perturbation", typ.Field(i).Name, field)
			continue
		}
		name := "REUSE"
		if field == "name" {
			name = "REUSE2"
		}
		variant := derive(name, overlay)
		// The variant differs from the base in its field alone.
		vSpec := specOf(variant)
		for k := range mergeKeys(baseSpec, vSpec) {
			if differs := !bytes.Equal(baseSpec[k], vSpec[k]); differs != (k == field) {
				t.Fatalf("perturbing %s: spec key %s differs: %v", field, k, differs)
			}
		}
		reqs := pairRequests(blocks, facile.Request{Variant: base}, facile.Request{Variant: variant})
		checkBatchFresh(t, eng, reg, reqs, field)
	}
	for field := range fieldPerturbations {
		if !seen[field] {
			t.Errorf("perturbation for %q, which is no uarch.Config field", field)
		}
	}
}

// mergeKeys returns the union of the maps' keys.
func mergeKeys(a, b map[string]json.RawMessage) map[string]bool {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}
