package bb

import (
	"encoding/hex"
	"reflect"
	"testing"

	"facile/internal/uarch"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	code, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestBuilderMatchesBuild checks that the Builder form produces blocks
// identical to Build, including macro-fusion rewrites.
func TestBuilderMatchesBuild(t *testing.T) {
	codes := [][]byte{
		mustHex(t, "4801d8480fafc3"),       // add rax,rbx; imul rax,rbx
		mustHex(t, "480fafc348ffc975f7"),   // imul; dec; jne (macro-fusible)
		mustHex(t, "4803074883c70848ffc9"), // load + pointer bump + dec
		mustHex(t, "90909090"),             // nops
	}
	for _, cfg := range uarch.All() {
		bd := NewBuilder(cfg)
		for _, code := range codes {
			want, errWant := Build(cfg, code)
			// Build twice: a Builder retains nothing between blocks.
			for pass := 0; pass < 2; pass++ {
				got, errGot := bd.Build(code)
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("%s: error mismatch: %v vs %v", cfg.Name, errWant, errGot)
				}
				if errWant != nil {
					continue
				}
				if !sameAsFresh(got, want) {
					t.Fatalf("%s pass %d: builder block differs from one-shot block\nwant %+v\ngot  %+v",
						cfg.Name, pass, want, got)
				}
			}
		}
	}
}

// TestBuilderFusionDoesNotPoisonCache checks that the macro-fusion rewrite
// (which retargets the compute µop to the branch ports) stays inside the
// fused block and does not leak into a later block's descriptor.
func TestBuilderFusionDoesNotPoisonCache(t *testing.T) {
	bd := NewBuilder(uarch.MustByName("SKL"))
	fused := mustHex(t, "48ffc975fb") // dec rcx; jne  (fuses)
	alone := mustHex(t, "48ffc9")     // dec rcx alone
	blockFused, err := bd.Build(fused)
	if err != nil {
		t.Fatal(err)
	}
	if !blockFused.Insts[0].FusedWithNext {
		t.Fatal("dec+jne should macro-fuse on SKL")
	}
	blockAlone, err := bd.Build(alone)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Build(uarch.MustByName("SKL"), alone)
	if !reflect.DeepEqual(want.Insts[0].Desc, blockAlone.Insts[0].Desc) {
		t.Fatalf("descriptor was mutated by fusion:\nwant %+v\ngot  %+v",
			want.Insts[0].Desc, blockAlone.Insts[0].Desc)
	}
}
