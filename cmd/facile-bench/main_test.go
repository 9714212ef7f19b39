package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"facile/internal/accuracy"
	"facile/internal/baselines"
	"facile/internal/bhive"
	"facile/internal/mca"
)

var update = flag.Bool("update", false, "rewrite the golden accuracy report")

const goldenPath = "../../testdata/accuracy/report.golden"

// miniCorpus returns the corpus arguments of the committed mini-corpus, the
// same (arch, mode) set the CI accuracy job evaluates.
func miniCorpus(dir string) []string {
	return []string{
		"SKL/unroll=" + filepath.Join(dir, "skl_u.csv"),
		"SKL/loop=" + filepath.Join(dir, "skl_l.csv"),
		"ICL/unroll=" + filepath.Join(dir, "icl_u.csv"),
	}
}

func runBench(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestE2EGoldenReport asserts the exact report bytes on the committed
// mini-corpus: the whole pipeline — CSV reader, AnalyzeBatchN streaming,
// opponent training, accumulators, table rendering — pinned end to end.
// Regenerate with `go test ./cmd/facile-bench -run E2E -update`.
func TestE2EGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e corpus evaluation skipped in -short mode")
	}
	args := append([]string{"-train-n", "64"}, miniCorpus("../../testdata/accuracy")...)
	got := runBench(t, args)
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report deviates from %s; run with -update after a deliberate change\n--- got ---\n%s", goldenPath, got)
	}
}

// stripVolatile drops the lines that legitimately differ between otherwise
// identical runs (the echoed command line embeds the differing flags).
func stripVolatile(report string) string {
	var keep []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "command: ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestReportBytesIndependentOfWorkersAndChunk: the acceptance property —
// identical inputs give byte-identical reports under any parallelism and any
// streaming granularity.
func TestReportBytesIndependentOfWorkersAndChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e corpus evaluation skipped in -short mode")
	}
	base := miniCorpus("../../testdata/accuracy")
	ref := stripVolatile(runBench(t, append([]string{"-train-n", "64", "-workers", "1"}, base...)))
	for _, extra := range [][]string{
		{"-train-n", "64", "-workers", "7"},
		{"-train-n", "64", "-workers", "3", "-chunk", "17"},
	} {
		got := stripVolatile(runBench(t, append(extra, base...)))
		if got != ref {
			t.Errorf("report bytes depend on %v:\n--- ref ---\n%s\n--- got ---\n%s", extra, ref, got)
		}
	}
}

// benchRecord is the slice of BENCH_8.json the drift tests need.
type benchRecord struct {
	Accuracy []accuracy.Summary `json:"accuracy"`
}

func committedBaseline(t *testing.T) []accuracy.Summary {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Accuracy) == 0 {
		t.Fatal("BENCH_8.json holds no accuracy rows")
	}
	return rec.Accuracy
}

func summariesFor(t *testing.T, corpusDir string) []accuracy.Summary {
	t.Helper()
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	runBench(t, append([]string{"-train-n", "64", "-json", jsonPath}, miniCorpus(corpusDir)...))
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report accuracy.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	return report.Summaries()
}

// TestDriftGateAgainstCommittedBaseline is the CI accuracy gate in
// miniature, the analogue of TestKnownDivergencesDetectsPerturbation: a
// healthy run must pass CheckDrift against the committed BENCH_8.json, and a
// 3x model skew (simulated by rescaling the corpus measurements, which is
// what a 3x prediction skew looks like to the statistics) must trip it.
func TestDriftGateAgainstCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e corpus evaluation skipped in -short mode")
	}
	baseline := committedBaseline(t)

	healthy := summariesFor(t, "../../testdata/accuracy")
	if errs := accuracy.CheckDrift(healthy, baseline, accuracy.DefaultMaxMAPERisePP, accuracy.DefaultMaxTauDrop); len(errs) != 0 {
		t.Fatalf("healthy run drifted from the committed BENCH_8.json baseline: %v", errs)
	}

	skewDir := t.TempDir()
	for _, name := range []string{"skl_u.csv", "skl_l.csv", "icl_u.csv"} {
		writeSkewed(t, filepath.Join("../../testdata/accuracy", name), filepath.Join(skewDir, name), 3)
	}
	skewed := summariesFor(t, skewDir)
	errs := accuracy.CheckDrift(skewed, baseline, accuracy.DefaultMaxMAPERisePP, accuracy.DefaultMaxTauDrop)
	if len(errs) == 0 {
		t.Fatal("3x skew passed the drift gate; the CI accuracy gate gates nothing")
	}
	t.Logf("gate tripped as expected: %v", errs[0])
}

// writeSkewed copies a corpus with every measurement scaled by factor.
func writeSkewed(t *testing.T, src, dst string, factor float64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		hexPart, cyc, ok := strings.Cut(line, ",")
		if !ok || strings.HasPrefix(line, "#") {
			sb.WriteString(line)
			sb.WriteString("\n")
			continue
		}
		v, err := strconv.ParseFloat(cyc, 64)
		if err != nil {
			t.Fatalf("%s: bad row %q", src, line)
		}
		fmt.Fprintf(&sb, "%s,%v\n", hexPart, v*factor)
	}
	if err := os.WriteFile(dst, []byte(strings.TrimSuffix(sb.String(), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStreams100kBlocks is the scale acceptance check: a 100 000-row corpus
// goes through AnalyzeBatchN in one streaming pass, and the statistics are
// invariant to the chunk size (the report depends on the rows, not on how
// they were batched).
func TestStreams100kBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-block streaming pass skipped in -short mode")
	}
	const n = 100000
	path := filepath.Join(t.TempDir(), "big.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic constant measurements: the streaming claim is about the
	// prediction path, not the measurement substrate.
	bw := bufio.NewWriter(f)
	for _, bm := range bhive.Generate(8, n) {
		fmt.Fprintf(bw, "%s,1.00\n", hex.EncodeToString(bm.Code))
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var small, large bytes.Buffer
	argsFor := func(chunk string) []string {
		return []string{"-predictors", "", "-dedup=false", "-chunk", chunk, "SKL/unroll=" + path}
	}
	if err := run(argsFor("512"), &small, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(argsFor("8192"), &large, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(small.String(), fmt.Sprintf("(%d rows", n)) {
		t.Errorf("report did not see all %d rows:\n%s", n, small.String())
	}
	if stripVolatile(small.String()) != stripVolatile(large.String()) {
		t.Errorf("statistics depend on the chunk size:\n--- 512 ---\n%s\n--- 8192 ---\n%s", small.String(), large.String())
	}
}

// TestParseSpecErrors pins the argument diagnostics.
func TestParseSpecErrors(t *testing.T) {
	for _, arg := range []string{"SKL/unroll", "SKLunroll=x.csv", "NOPE/unroll=x.csv", "SKL/sideways=x.csv", "SKL/loop="} {
		if _, err := parseSpec(arg); err == nil {
			t.Errorf("parseSpec(%q) accepted", arg)
		}
	}
	spec, err := parseSpec("SKL/tpl=x.csv")
	if err != nil {
		t.Fatal(err)
	}
	if spec.cfg.Name != "SKL" || spec.path != "x.csv" {
		t.Errorf("spec = %+v", spec)
	}
}

// TestParsePredictorsRejectsUnknown: -predictors is validated against the
// baselines registry, and the error lists every registered name.
func TestParsePredictorsRejectsUnknown(t *testing.T) {
	err := run([]string{"-predictors", "uica,turboboost", "SKL/unroll=x.csv"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown predictor accepted")
	}
	for _, name := range baselines.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	names, err := baselines.ParseNames("facile, uica ,ITHEMAL")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "facile,uica,ithemal" {
		t.Errorf("names = %v", names)
	}
}

// TestMCAEntrantThroughRegistry runs the external llvm-mca entrant, built by
// the registry, under a block budget: its row scores exactly the budget, and
// the report bytes do not depend on the worker count.
func TestMCAEntrantThroughRegistry(t *testing.T) {
	if _, ok := mca.LookPath(); !ok {
		t.Skip("no llvm-mca binary found")
	}
	args := func(workers string) []string {
		return []string{"-predictors", "mca", "-mca-limit", "8", "-workers", workers,
			"SKL/unroll=../../testdata/accuracy/skl_u.csv"}
	}
	one := runBench(t, args("1"))
	var row []string
	for _, line := range strings.Split(one, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "llvm-mca(ext)" {
			row = f
		}
	}
	if row == nil || row[1] != "8" {
		t.Fatalf("llvm-mca(ext) row %v, want 8 scored blocks:\n%s", row, one)
	}
	if two := runBench(t, args("2")); stripVolatile(two) != stripVolatile(one) {
		t.Errorf("report bytes depend on -workers:\n--- 1 ---\n%s\n--- 2 ---\n%s", one, two)
	}
}
