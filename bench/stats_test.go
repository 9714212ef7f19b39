package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted; it leaves 9 beyond it")
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted; it leaves 9 beyond it")
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(seq(5000), q); err == nil {
			t.Errorf("q=%g accepted", q)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 990}, // 10 samples (991..1000) lie beyond
		{2000, 0.99, 1980},
		{20, 0.5, 10},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..%d = %g, %v; want %g", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7, 1, 4, 4, 9}, 2.5, 4, 8},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g; want %g %g %g", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestLatencyGroups(t *testing.T) {
	sized := func(ns ...int) [][]float64 {
		out := make([][]float64, len(ns))
		for i, n := range ns {
			out[i] = make([]float64, n)
		}
		return out
	}
	for _, tc := range []struct {
		sizes []int
		want  []int
	}{
		{[]int{1000, 1000, 1000}, []int{1, 2, 3}},
		{[]int{500, 500, 500, 500, 300}, []int{2, 5}}, // the remainder joins the last group
		{[]int{200, 200, 200}, []int{3}},              // too few for a group: one group
		{[]int{999, 1}, []int{2}},
	} {
		if got := latencyGroups(sized(tc.sizes...), 1000); !slices.Equal(got, tc.want) {
			t.Errorf("latencyGroups(%v) = %v, want %v", tc.sizes, got, tc.want)
		}
	}
}

// TestSetLatencyScalesEachRepeat gives two repeats the same latencies, the
// second measured while the machine ran twice as slow: at the reference
// speed the second's latencies halve, as measured they do not. Each repeat
// is a group of its own for every percentile.
func TestSetLatencyScalesEachRepeat(t *testing.T) {
	r := newResult("w")
	r.setLatency([][]float64{seq(1000), seq(1000)}, []float64{1, 2})
	for _, tc := range []struct {
		name          string
		m             map[string]value
		ref, measured float64
	}{
		{"latency_p50_us", r.Metrics, (500 + 250) / 2, 500},
		{"latency_p90_us", r.Metrics, (900 + 450) / 2, 900},
		{"latency_p99_us", r.Extra, (990 + 495) / 2.0, 990},
	} {
		if got := tc.m[tc.name]; got.Value != tc.ref || len(got.Repeats) != 2 {
			t.Errorf("%s = %g over %d groups, want %g over 2", tc.name, got.Value, len(got.Repeats), tc.ref)
		}
		if got := r.Extra[measuredPrefix+tc.name].Value; got != tc.measured {
			t.Errorf("measured %s = %g, want %g", tc.name, got, tc.measured)
		}
	}
	r.setTiming("blocks_per_s", "blocks/s", asRate, []float64{100, 50, 60, 200}, []float64{1, 2, 1.5, 1}, 4, "")
	if got := r.Metrics["blocks_per_s"].Value; got != 100 { // midmean of 90, 100, 100, 200
		t.Errorf("blocks_per_s at the reference speed = %g, want 100", got)
	}
	if got := r.Extra[measuredPrefix+"blocks_per_s"].Value; got != 80 { // midmean of 50, 60, 100, 200
		t.Errorf("blocks_per_s as measured = %g, want 80", got)
	}
}

func TestMidmean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{100, 3, 1, 2, 4}, 3}, // drops 1 and 100
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 3}, 2},
		{[]float64{5}, 5},
	} {
		if got := midmean(tc.xs); got != tc.want {
			t.Errorf("midmean(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	r := &recorder{workload: "test"}
	parent := &span{ID: 1, Name: "facile", BusyNS: 1000, Calls: 10, Nested: 10}
	child := &span{ID: 2, Parent: 1, Name: "bb", BusyNS: 600, Calls: 20, Nested: 10} // 30 ns per call, 10 nested
	grandchild := &span{ID: 3, Parent: 2, Name: "x86", BusyNS: 200, Calls: 20, Nested: 20}
	r.spans = []*span{parent, child, grandchild}
	if got := r.selfNS(parent); got != 1000-30*10 {
		t.Errorf("parent self = %g, want 700", got)
	}
	if got := r.selfNS(child); got != 600-200 {
		t.Errorf("child self = %g, want 400", got)
	}
	if flags := r.negativeSelf(0.1); len(flags) != 0 {
		t.Errorf("flags on a consistent tree: %v", flags)
	}

	// Children costing more than their parent's pass: within 10% is
	// replay noise, beyond it is flagged.
	child.BusyNS, child.Nested = 1080*2, 10 // 108 ns per call, 1080 nested
	if flags := r.negativeSelf(0.1); len(flags) != 0 {
		t.Errorf("self of -8%% flagged: %v", flags)
	}
	child.BusyNS = 1200 * 2
	if flags := r.negativeSelf(0.1); len(flags) != 1 {
		t.Errorf("self of -20%% not flagged once: %v", flags)
	}
}

func TestScanOutcome(t *testing.T) {
	body := []byte(`{"results": [
  {"prediction": {"cycles_per_iteration": 1.25, "arch": "SKL", "components": {"Issue": 1.25},
    "bottlenecks": ["Issue", "Ports"], "instructions": ["add rax, rbx"]}},
  {"prediction": {"cycles_per_iteration":3,"bottlenecks":["Precedence"]}}
]}`)
	outs, err := scanBatch(body, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []outcome{{1.25, "Issue,Ports"}, {3, "Precedence"}}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("item %d = %+v, want %+v", i, outs[i], want[i])
		}
	}
	if _, err := scanBatch(body, 3); err == nil {
		t.Error("scanned 3 predictions out of 2")
	}
	if _, err := scanBatch([]byte(`{"results":[{"error":"bad hex"}]}`), 1); err == nil {
		t.Error("an item error passed")
	}
}

// TestCompareGatesScaledValues compares two sets whose rate at the
// reference speed fell by 20% while the machine sped up as much: the
// reported values regress, and the line says the measured ones disagree.
func TestCompareGatesScaledValues(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [{"name": "blocks_per_s", "unit": "blocks/s", "better": "higher", "bound": 0.1}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, scaled, measured float64) string {
		res := newResult("w")
		res.Metrics["blocks_per_s"] = value{Value: scaled, Unit: "blocks/s"}
		res.Extra[measuredPrefix+"blocks_per_s"] = value{Value: measured, Unit: "blocks/s"}
		data, err := json.Marshal(document{Results: []*result{res}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	args := []string{"-root", dir}
	for i, v := range []float64{100, 101, 99} {
		args = append(args, write(fmt.Sprintf("a%d.json", i), v, v))
	}
	args = append(args, "--")
	for i, v := range []float64{80, 81, 79} {
		args = append(args, write(fmt.Sprintf("b%d.json", i), v, v/0.8))
	}
	var out bytes.Buffer
	if code := compareMain(args, &out); code != 1 {
		t.Errorf("exit %d on a 20%% drop in the scaled rate, want 1:\n%s", code, out.String())
	}
	for _, want := range []string{"REGRESSION", "measured and scaled disagree"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name        string
		b           []float64
		lowerBetter bool
		want        string
	}{
		{"same", []float64{100, 99, 101, 100, 100}, false, "ok"},
		{"rate fell past the bound", []float64{85, 86, 84, 85, 86}, false, "REGRESSION"},
		{"time rose past the bound", []float64{115, 116, 114, 115, 116}, true, "REGRESSION"},
		{"within the bound", []float64{95, 96, 94, 95, 96}, false, "ok"},
		{"every run better", []float64{120, 121, 119, 120, 122}, false, "better"},
		{"spread wider than the bound", []float64{60, 100, 140, 80, 120}, false, "unresolved"},
	} {
		if _, got := verdict(base, tc.b, tc.lowerBetter, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
