package facile

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"facile/internal/bhive"
)

// The arch-parity golden file pins the predictions of the nine Table 1
// microarchitectures as computed from the seed hardcoded Go tables, across
// TPU (unrolled), TPL (loop), and TPL-with-LSD-serving blocks. The embedded
// spec files must reproduce these predictions byte-identically: the specs
// are the source of truth for the microarchitecture layer, and this gate is
// what allowed the hardcoded tables to be deleted.
//
// Regenerate (only for a deliberate, reviewed model change) with:
//
//	go test -run TestArchParity -update-arch-parity .
var updateArchParity = flag.Bool("update-arch-parity", false,
	"rewrite testdata/arch_parity.json from the current implementation")

const archParityFile = "arch_parity.json"

// parityRecord is one golden prediction. Components carries the full bound
// vector (Analysis.Bounds keyed by component name) so a spec error that shifts a non-binding bound still fails the
// gate, not just one that moves the maximum.
type parityRecord struct {
	Code           string             `json:"code"`
	Arch           string             `json:"arch"`
	Mode           string             `json:"mode"`
	Cycles         float64            `json:"cycles_per_iteration"`
	Components     map[string]float64 `json:"components"`
	Bottlenecks    []string           `json:"bottlenecks"`
	FrontEndSource string             `json:"front_end_source,omitempty"`
}

// parityBlocks returns the evaluation blocks of the gate: a deterministic
// slice of the BHive-like corpus plus handcrafted tight loops small enough
// for the LSD on every generation that has one.
func parityBlocks() [][2]string {
	var blocks [][2]string // (hex, mode)
	for _, bm := range bhive.Generate(7, 40) {
		blocks = append(blocks,
			[2]string{hex.EncodeToString(bm.Code), "unroll"},
			[2]string{hex.EncodeToString(bm.LoopCode), "loop"})
	}
	// Tight loops that fit every IDQ: dec+jnz, add+dec+jnz with a load, and
	// a two-µop FP loop. These pin the LSD (and its unrolling behavior)
	// where enabled, and the DSB path on SKL/CLX where SKL150 disables it.
	for _, h := range []string{
		"48ffc975f9",               // dec rcx; jnz
		"488b0748ffc048ffc975f2",   // mov rax,[rdi]; inc rax; dec rcx; jnz
		"f30f58c148ffc975f4",       // addss xmm0,xmm1; dec rcx; jnz
		"4801d8480fafc348ffc975f0", // add rax,rbx; imul rax,rbx; dec rcx; jnz
	} {
		blocks = append(blocks, [2]string{h, "loop"})
	}
	return blocks
}

// parityArchs pins the gate to the nine Table 1 arches by name: the gate
// must not drift if some other test (or an -arch-dir user) registers extra
// arches in the default registry.
var parityArchs = []string{"RKL", "TGL", "ICL", "CLX", "SKL", "BDW", "HSW", "IVB", "SNB"}

// parityRecords computes the full record set from the current
// implementation (whatever uarch source is live), in deterministic order.
func parityRecords(t *testing.T) []parityRecord {
	t.Helper()
	var out []parityRecord
	lsdServed := 0
	for _, arch := range parityArchs {
		for _, bk := range parityBlocks() {
			code, err := hex.DecodeString(bk[0])
			if err != nil {
				t.Fatalf("bad parity block %q: %v", bk[0], err)
			}
			mode := Unroll
			if bk[1] == "loop" {
				mode = Loop
			}
			ana, err := DefaultEngine().Analyze(context.Background(), Request{Code: code, Arch: arch, Mode: mode})
			if err != nil {
				t.Fatalf("Analyze(%s, %s, %s): %v", bk[0], arch, bk[1], err)
			}
			pred := &ana.Prediction
			if pred.FrontEndSource == "LSD" {
				lsdServed++
			}
			components := make(map[string]float64, len(ana.Bounds))
			for _, b := range ana.Bounds {
				components[b.Component] = b.Cycles
			}
			out = append(out, parityRecord{
				Code:           bk[0],
				Arch:           arch,
				Mode:           bk[1],
				Cycles:         pred.CyclesPerIteration,
				Components:     components,
				Bottlenecks:    pred.Bottlenecks,
				FrontEndSource: pred.FrontEndSource,
			})
		}
	}
	if lsdServed == 0 {
		t.Fatal("parity corpus exercises no LSD-served block; the TPL-LSD mode is uncovered")
	}
	return out
}

func marshalParity(t *testing.T, recs []parityRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArchParity is the hardcoded-vs-spec parity gate: predictions from the
// embedded spec files must be byte-identical to the golden captured from the
// seed hardcoded tables, for all nine arches across TPU/TPL/TPL-LSD.
func TestArchParity(t *testing.T) {
	got := marshalParity(t, parityRecords(t))
	path := filepath.Join("testdata", archParityFile)
	if *updateArchParity {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-arch-parity to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		var w, g []parityRecord
		if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil || len(w) != len(g) {
			t.Fatalf("arch parity golden mismatch: record sets differ in shape (got %d bytes, want %d)", len(got), len(want))
		}
		shown := 0
		for i := range w {
			if gi := marshalOne(t, g[i]); !bytes.Equal(gi, marshalOne(t, w[i])) && shown < 5 {
				t.Errorf("parity mismatch for arch=%s mode=%s code=%s:\n got: %+v\nwant: %+v",
					w[i].Arch, w[i].Mode, w[i].Code, g[i], w[i])
				shown++
			}
		}
		t.Fatal("embedded specs do not reproduce the seed hardcoded-table predictions")
	}
}

func marshalOne(t *testing.T, r parityRecord) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
