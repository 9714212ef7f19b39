package facile_test

import (
	"encoding/hex"
	"strings"
	"testing"

	"facile"
)

func decode(t testing.TB, s string) []byte {
	t.Helper()
	code, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestPublicArchs(t *testing.T) {
	archs := facile.Archs()
	if len(archs) != 9 {
		t.Fatalf("got %d microarchitectures, want 9", len(archs))
	}
	want := map[string]bool{"RKL": true, "SKL": true, "SNB": true}
	for _, a := range archs {
		delete(want, a)
	}
	if len(want) != 0 {
		t.Fatalf("missing architectures: %v", want)
	}
	infos := facile.ArchInfos()
	if len(infos) != 9 || infos[0].FullName == "" || infos[0].CPU == "" {
		t.Fatalf("incomplete ArchInfos: %+v", infos[0])
	}
}

func TestPublicPredictChain(t *testing.T) {
	// imul rax, rbx; dec rcx; jne: the two-operand imul reads and writes
	// rax, a loop-carried latency-3 chain => Precedence-bound at 3.
	code := decode(t, "480fafc3 48ffc9 75f7")
	pred, err := predict(facile.DefaultEngine(), code, "SKL", facile.Loop)
	if err != nil {
		t.Fatal(err)
	}
	if pred.CyclesPerIteration != 3 {
		t.Fatalf("TP = %v, want 3", pred.CyclesPerIteration)
	}
	if pred.Bottlenecks[0] != "Precedence" {
		t.Fatalf("bottleneck = %v, want Precedence", pred.Bottlenecks)
	}
	if len(pred.Instructions) != 3 {
		t.Fatalf("instructions: %v", pred.Instructions)
	}
	if pred.FrontEndSource == "" {
		t.Fatal("TPL prediction must name its front-end source")
	}
}

func TestPublicPredictMatchesSimulator(t *testing.T) {
	// A dependency chain both models agree on exactly.
	code := decode(t, "480faf c0") // imul rax, rax
	pred, err := predict(facile.DefaultEngine(), code, "SKL", facile.Unroll)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := facile.DefaultEngine().Simulate(code, "SKL", facile.Unroll)
	if err != nil {
		t.Fatal(err)
	}
	if pred.CyclesPerIteration != 3 || sim != 3 {
		t.Fatalf("facile %v, sim %v, want 3", pred.CyclesPerIteration, sim)
	}
}

func TestPublicErrors(t *testing.T) {
	if _, err := predict(facile.DefaultEngine(), nil, "SKL", facile.Loop); err == nil {
		t.Fatal("empty block must error")
	}
	if _, err := predict(facile.DefaultEngine(), []byte{0x90}, "???", facile.Loop); err == nil {
		t.Fatal("unknown arch must error")
	}
	if _, err := predict(facile.DefaultEngine(), []byte{0xD9, 0xC0}, "SKL", facile.Loop); err == nil {
		t.Fatal("undecodable block must error")
	}
}

// TestPublicInvalidMode: every public entry point rejects Mode values
// outside {Unroll, Loop} instead of silently predicting TPU.
func TestPublicInvalidMode(t *testing.T) {
	code := decode(t, "4801d8")
	for _, bad := range []facile.Mode{facile.Mode(7), facile.Mode(-1)} {
		if _, err := predict(facile.DefaultEngine(), code, "SKL", bad); err == nil {
			t.Errorf("Analyze must reject Mode(%d)", int(bad))
		}
		if _, err := speedupMap(facile.DefaultEngine(), code, "SKL", bad); err == nil {
			t.Errorf("Analyze at DetailSpeedups must reject Mode(%d)", int(bad))
		}
		if _, err := explainText(facile.DefaultEngine(), code, "SKL", bad); err == nil {
			t.Errorf("Analyze at DetailFull must reject Mode(%d)", int(bad))
		}
		if _, err := facile.DefaultEngine().Simulate(code, "SKL", bad); err == nil {
			t.Errorf("Simulate must reject Mode(%d)", int(bad))
		}
	}
}

func TestComponentNames(t *testing.T) {
	names := facile.ComponentNames()
	want := []string{"Predec", "Dec", "DSB", "LSD", "Issue", "Ports", "Precedence"}
	if len(names) != len(want) {
		t.Fatalf("ComponentNames() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ComponentNames()[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestPublicDisassemble(t *testing.T) {
	lines, err := facile.Disassemble(decode(t, "4801d8 90"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || !strings.Contains(lines[0], "add") || !strings.Contains(lines[1], "nop") {
		t.Fatalf("lines = %v", lines)
	}
}

func TestPublicSpeedups(t *testing.T) {
	code := decode(t, "480fafc0") // imul rax, rax: precedence-bound
	sp, err := speedupMap(facile.DefaultEngine(), code, "SKL", facile.Unroll)
	if err != nil {
		t.Fatal(err)
	}
	if sp["Precedence"] <= 1.5 {
		t.Fatalf("Precedence speedup = %v, want > 1.5", sp["Precedence"])
	}
	if sp["Issue"] != 1 {
		t.Fatalf("Issue speedup = %v, want 1", sp["Issue"])
	}
}

func TestPublicExplain(t *testing.T) {
	code := decode(t, "480fafc3 480fafcb 480fafd3") // three imuls: port-bound
	report, err := explainText(facile.DefaultEngine(), code, "SKL", facile.Unroll)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Predicted:", "Ports", "bottleneck", "Counterfactual"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestPublicPredictAllArchesAllModes(t *testing.T) {
	code := decode(t, "4801d8 4883c108 48ffca 75f3")
	for _, arch := range facile.Archs() {
		for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
			pred, err := predict(facile.DefaultEngine(), code, arch, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", arch, mode, err)
			}
			if pred.CyclesPerIteration <= 0 {
				t.Fatalf("%s/%v: non-positive TP", arch, mode)
			}
			if len(pred.Bottlenecks) == 0 {
				t.Fatalf("%s/%v: no bottleneck identified", arch, mode)
			}
		}
	}
}
