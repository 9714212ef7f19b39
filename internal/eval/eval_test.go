package eval

import (
	"os"
	"strings"
	"testing"

	"facile/internal/core"
	"facile/internal/uarch"
)

// The eval tests run the real experiment pipelines on reduced corpora and
// assert the paper's qualitative findings rather than exact figures.

const (
	testCorpusN = 160
	testTrainN  = 160
)

// skipIfShort gates the experiment-pipeline tests: each one simulates a
// corpus on the measurement substrate, which takes seconds. `go test -short`
// skips them; CI runs the full suite on the main-branch job.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment pipeline test skipped in -short mode")
	}
}

func TestTable1ListsAllArches(t *testing.T) {
	text := Table1()
	for _, name := range []string{"Rocket Lake", "Skylake", "Sandy Bridge", "i9-11900"} {
		if !strings.Contains(text, name) {
			t.Errorf("Table 1 missing %q", name)
		}
	}
}

// table2Golden pins the exact Table 2 text for SKL at testCorpusN and
// testTrainN: every predictor's MAPE and tau, byte for byte.
const table2Golden = "../../testdata/eval/table2_skl.golden"

func TestTable2Shape(t *testing.T) {
	skipIfShort(t)
	rows, text := Table2(testCorpusN, testTrainN, []*uarch.Config{uarch.MustByName("SKL")})
	want, err := os.ReadFile(table2Golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("Table 2 deviates from %s\n--- got ---\n%s", table2Golden, text)
	}
	if !strings.Contains(text, "Facile") {
		t.Fatal("missing Facile row")
	}
	get := func(name string) AccuracyRow {
		for _, r := range rows {
			if r.Predictor == name {
				return r
			}
		}
		t.Fatalf("no row for %s", name)
		return AccuracyRow{}
	}
	facile := get("Facile")
	uica := get("uiCA")

	// Finding 1: Facile achieves state-of-the-art accuracy (small MAPE,
	// high rank correlation) on both suites.
	if facile.MAPEU > 0.05 || facile.MAPEL > 0.06 {
		t.Errorf("Facile MAPE too high: U=%.2f%% L=%.2f%%",
			facile.MAPEU*100, facile.MAPEL*100)
	}
	if facile.KendallU < 0.9 || facile.KendallL < 0.9 {
		t.Errorf("Facile Kendall too low: %v / %v", facile.KendallU, facile.KendallL)
	}
	// Finding 2: comparable to (slightly worse than) uiCA.
	if facile.MAPEU < uica.MAPEU-0.01 {
		t.Errorf("Facile (%.2f%%) should not beat uiCA (%.2f%%) by a margin",
			facile.MAPEU*100, uica.MAPEU*100)
	}
	// Finding 3: all other predictors are far less accurate.
	for _, name := range []string{"llvm-mca", "OSACA", "CQA", "Ithemal", "DiffTune", "learning-bl"} {
		r := get(name)
		if r.MAPEU < 2*facile.MAPEU {
			t.Errorf("%s MAPE(U) %.2f%% implausibly close to Facile %.2f%%",
				name, r.MAPEU*100, facile.MAPEU*100)
		}
	}
}

// table3Golden pins the exact Table 3 text for SKL at testCorpusN: every
// ablation variant's MAPE and tau, byte for byte.
const table3Golden = "../../testdata/eval/table3_skl.golden"

func TestTable3Shape(t *testing.T) {
	skipIfShort(t)
	_, text := Table3(testCorpusN, []*uarch.Config{uarch.MustByName("SKL")})
	want, err := os.ReadFile(table3Golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("Table 3 deviates from %s\n--- got ---\n%s", table3Golden, text)
	}

	rows, _ := Table3(testCorpusN, []*uarch.Config{uarch.MustByName("RKL")})
	get := func(variant string) VariantRow {
		for _, r := range rows {
			if r.Variant == variant {
				return r
			}
		}
		t.Fatalf("no row for %q", variant)
		return VariantRow{}
	}
	full := get("Facile")

	// No single component predicts throughput accurately on its own.
	for _, v := range []string{"only Predec", "only Dec", "only Issue", "only Ports", "only Precedence"} {
		r := get(v)
		if r.HasU && r.MAPEU < 2*full.MAPEU {
			t.Errorf("%s MAPE %.2f%% should be much worse than full Facile %.2f%%",
				v, r.MAPEU*100, full.MAPEU*100)
		}
	}
	// Removing Ports or Precedence hurts notably under TPU.
	for _, v := range []string{"Facile w/o Ports", "Facile w/o Precedence"} {
		r := get(v)
		if r.MAPEU < full.MAPEU+0.01 {
			t.Errorf("%s MAPE %.2f%% should exceed full Facile %.2f%%",
				v, r.MAPEU*100, full.MAPEU*100)
		}
	}
	// SimplePredec is notably worse than the full predecoder model on RKL.
	sp := get("Facile w/ SimplePredec")
	if sp.MAPEU < full.MAPEU+0.01 {
		t.Errorf("SimplePredec MAPE %.2f%% should exceed full Facile %.2f%%",
			sp.MAPEU*100, full.MAPEU*100)
	}
	// Loop-only components have empty TPU cells.
	if get("only DSB").HasU || get("only LSD").HasU {
		t.Error("DSB/LSD must not have TPU cells")
	}
}

func TestTable4Shape(t *testing.T) {
	skipIfShort(t)
	rows, _ := Table4(testCorpusN, []*uarch.Config{uarch.MustByName("SNB"), uarch.MustByName("RKL")})
	for _, row := range rows {
		for c, sp := range row.Speedups {
			if sp < 1-1e-9 {
				t.Errorf("%s: idealizing %v gives speedup %v < 1", row.Arch, c, sp)
			}
			if sp > 3 {
				t.Errorf("%s: idealizing %v gives implausible speedup %v", row.Arch, c, sp)
			}
		}
		// The designs are balanced: idealizing one component gives limited
		// gains (paper: at most ~1.2).
		if row.Speedups[core.Issue] > 1.1 {
			t.Errorf("%s: Issue idealization speedup %v too large",
				row.Arch, row.Speedups[core.Issue])
		}
	}
}

func TestFigure3Renders(t *testing.T) {
	skipIfShort(t)
	text := Figure3(80, uarch.MustByName("RKL"))
	for _, want := range []string{"FIGURE 3", "Facile", "uiCA", "llvm-mca", "CQA"} {
		if !strings.Contains(text, want) {
			t.Errorf("Figure 3 missing %q", want)
		}
	}
}

func TestFigure4ComponentCosts(t *testing.T) {
	skipIfShort(t)
	tpu, tpl, text := Figure4(60, uarch.MustByName("SKL"))
	if !strings.Contains(text, "Precedence") {
		t.Fatal("missing Precedence timing")
	}
	cost := func(cts []ComponentTime, name string) float64 {
		for _, ct := range cts {
			if ct.Name == name {
				return ct.MeanMs
			}
		}
		t.Fatalf("missing component %s", name)
		return 0
	}
	// Paper Figure 4: overhead + Precedence dominate.
	for _, cts := range [][]ComponentTime{tpu, tpl} {
		dominant := cost(cts, "Overhead") + cost(cts, "Precedence")
		rest := cost(cts, "Issue") + cost(cts, "Ports") + cost(cts, "Dec")
		if dominant < rest {
			t.Errorf("overhead+precedence (%.5f ms) should dominate (%0.5f ms)",
				dominant, rest)
		}
	}
}

func TestFigure5FacileFastest(t *testing.T) {
	skipIfShort(t)
	rows, _ := Figure5(60, 60, uarch.MustByName("SKL"))
	var facileMs, uicaMs float64
	for _, r := range rows {
		switch r.Name {
		case "Facile":
			facileMs = r.MsU
		case "uiCA":
			uicaMs = r.MsU
		}
	}
	if facileMs <= 0 || uicaMs <= 0 {
		t.Fatalf("missing timings: facile=%v uica=%v", facileMs, uicaMs)
	}
	// The headline efficiency claim: order(s) of magnitude faster than the
	// simulation-based model.
	if uicaMs < 10*facileMs {
		t.Errorf("uiCA (%.4f ms) should be >= 10x slower than Facile (%.4f ms)",
			uicaMs, facileMs)
	}
}

func TestFigure6SharesShift(t *testing.T) {
	skipIfShort(t)
	text := BottleneckFlow(testCorpusN, []*uarch.Config{uarch.MustByName("SNB"), uarch.MustByName("RKL")})
	if !strings.Contains(text, "SNB bottleneck shares") ||
		!strings.Contains(text, "RKL bottleneck shares") ||
		!strings.Contains(text, "Transitions SNB -> RKL") {
		t.Fatalf("Figure 6 output incomplete:\n%s", text)
	}
}
