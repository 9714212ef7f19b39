package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"facile"
)

// wantJSON renders v the way the generic writeJSON path does: indented
// document plus the trailing newline json.Encoder emits.
func wantJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	return append(b, '\n')
}

// fastJSON renders v through the pooled encoder.
func fastJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if !writeJSONFast(&buf, v) {
		t.Fatalf("writeJSONFast refused %T", v)
	}
	return buf.Bytes()
}

func checkIdentical(t *testing.T, name string, v any) {
	t.Helper()
	got, want := fastJSON(t, v), wantJSON(t, v)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder output diverges\n got: %q\nwant: %q", name, got, want)
	}
}

func samplePrediction() facile.Prediction {
	return facile.Prediction{
		CyclesPerIteration: 1.25,
		Arch:               "SKL",
		Mode:               facile.Loop,
		Bottlenecks:        []string{"Ports"},
		FrontEndSource:     "LSD",
		CriticalChain:      []int{0, 2, 3},
		ContendedPorts:     "{0, 1, 5}",
		ContendedInstrs:    []int{1, 2},
		Instructions:       []string{"add rax, rbx", "imul rax, rbx"},
	}
}

// inBatch wraps p in the smallest hand-rolled document that carries it: a
// one-result batch response.
func inBatch(p facile.Prediction) BatchResponse {
	return BatchResponse{Results: []BatchResult{{Prediction: &p}}}
}

func TestEncodePredictionIdentical(t *testing.T) {
	p := samplePrediction()
	checkIdentical(t, "full", inBatch(p))

	minimal := facile.Prediction{Arch: "ICL", Mode: facile.Unroll}
	checkIdentical(t, "zero-valued", inBatch(minimal))

	nilSlices := samplePrediction()
	nilSlices.Bottlenecks = nil
	nilSlices.Instructions = nil
	checkIdentical(t, "nil slices", inBatch(nilSlices))

	empty := samplePrediction()
	empty.Bottlenecks = []string{}
	empty.Instructions = []string{}
	empty.CriticalChain = []int{}
	empty.ContendedInstrs = []int{}
	checkIdentical(t, "empty slices", inBatch(empty))
}

func TestEncodeFloatFormatsIdentical(t *testing.T) {
	floats := []float64{
		0, 1, -1, 1.25, 0.33, 2.0 / 3.0, 100, 1e6,
		1e-6, 9.999999e-7, 1e-7, 2.5e-9, -4.75e-8, 1e-300,
		1e20, 1e21, 1.5e21, 1e22, -1e21, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0.1 + 0.2,
	}
	for _, f := range floats {
		v := &facile.Analysis{
			Prediction: facile.Prediction{CyclesPerIteration: f},
			Bounds:     []facile.ComponentBound{{Component: "Ports", Cycles: f}},
		}
		checkIdentical(t, strconv.FormatFloat(f, 'g', -1, 64), v)
	}
}

func TestEncodeStringEscapingIdentical(t *testing.T) {
	strs := []string{
		"plain",
		`quote " backslash \`,
		"html <b>&amp;</b>",
		"control \x00 \x01 \x1f \b \f \n \r \t",
		"unicode é 世界 \U0001F600",
		"line separators \u2028 and \u2029",
		"invalid utf-8 \xff\xfe trailing",
		"mixed <   \xff > done",
	}
	for _, s := range strs {
		p := facile.Prediction{Arch: s, Instructions: []string{s}}
		checkIdentical(t, strconv.Quote(s), inBatch(p))
	}
}

func TestEncodeBatchResponseIdentical(t *testing.T) {
	p := samplePrediction()
	cases := map[string]BatchResponse{
		"nil results":   {},
		"empty results": {Results: []BatchResult{}},
		"mixed": {Results: []BatchResult{
			{Prediction: &p},
			{Error: `uarch: unknown microarchitecture "XXX" (one of SKL)`},
			{},
			{Prediction: &p, Error: "both set"},
		}},
	}
	for name, v := range cases {
		checkIdentical(t, name, v)
	}
}

func TestEncodeAnalysisIdentical(t *testing.T) {
	p := samplePrediction()
	bounds := []facile.ComponentBound{
		{Component: "Predec", Cycles: 0.75},
		{Component: "Ports", Cycles: 1.25, Bottleneck: true},
	}
	speedups := []facile.Speedup{
		{Component: "Ports", Factor: 1.67},
		{Component: "Issue", Factor: 1},
	}
	checkIdentical(t, "prediction only", &facile.Analysis{Prediction: p, Bounds: bounds})
	checkIdentical(t, "with speedups", &facile.Analysis{Prediction: p, Bounds: bounds, Speedups: speedups})
	checkIdentical(t, "nil bounds", &facile.Analysis{Prediction: p})
	checkIdentical(t, "empty bounds and speedups",
		&facile.Analysis{Prediction: p, Bounds: []facile.ComponentBound{}, Speedups: []facile.Speedup{}})
}

// TestEncodeAnalysisWithReportIdentical drives real engine analyses at
// DetailFull through the encoder so the report branch (the default
// /v1/analyze detail) is compared on genuine data, omitempty fields
// included.
func TestEncodeAnalysisWithReportIdentical(t *testing.T) {
	eng, err := facile.NewEngine(facile.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, code, mode string
	}{
		{"ports bottleneck", "4801d8480fafc3", "loop"},
		{"dependence chain", "480fafc0480fafc0", "loop"},
		{"unroll", "4801d8", "unroll"},
	} {
		mode, err := parseMode(tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		ana, err := eng.Analyze(t.Context(), facile.Request{
			Code: mustHex(t, tc.code), Arch: "SKL", Mode: mode, Detail: facile.DetailFull,
		})
		if err != nil {
			t.Fatalf("%s: Analyze: %v", tc.name, err)
		}
		checkIdentical(t, tc.name, ana)
	}
}

// TestEncodeExplainResponseIdentical: the explain view is a detail=full
// analysis read through report_text; the rendered text encodes identically.
func TestEncodeExplainResponseIdentical(t *testing.T) {
	checkIdentical(t, "explain", &facile.Analysis{
		Prediction: samplePrediction(),
		ReportText: "Facile throughput report — SKL, TPL (loop)\nline <two>\n",
	})
}

// TestEncodeNonFiniteFallsBack pins the divergence-avoidance contract: a
// non-finite float makes the fast encoder refuse (writing nothing), because
// the generic encoder fails such documents and writes nothing.
func TestEncodeNonFiniteFallsBack(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		if writeJSONFast(&buf, &facile.Analysis{Prediction: facile.Prediction{CyclesPerIteration: f}}) {
			t.Errorf("writeJSONFast accepted non-finite %v", f)
		}
		if buf.Len() != 0 {
			t.Errorf("writeJSONFast wrote %d bytes for non-finite %v", buf.Len(), f)
		}
	}
}

// TestEncodeRandomizedIdentical cross-checks the encoder against the generic
// path on generated documents: random floats, adversarial strings, optional
// fields toggling on and off, pooled encoder reuse across iterations.
func TestEncodeRandomizedIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Round(rng.Float64()*10000) / 100
		case 1:
			return rng.Float64() * math.Pow(10, float64(rng.Intn(50)-25))
		case 2:
			return -rng.Float64() * 1e-7
		default:
			return float64(rng.Intn(100))
		}
	}
	alphabet := []string{"a", "Z", "9", " ", `"`, `\\`, "<", "&", "\n", "\x02", "\u00e9", "\u2028", "\xff"}
	randString := func() string {
		var b []byte
		for i, n := 0, rng.Intn(12); i < n; i++ {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	for iter := 0; iter < 200; iter++ {
		var results []BatchResult
		for i, n := 0, rng.Intn(5); i < n; i++ {
			if rng.Intn(4) == 0 {
				results = append(results, BatchResult{Error: randString()})
				continue
			}
			p := facile.Prediction{
				CyclesPerIteration: randFloat(),
				Arch:               randString(),
				Mode:               facile.Mode(rng.Intn(2)),
				Bottlenecks:        []string{randString()},
				Instructions:       []string{randString(), randString()},
			}
			if rng.Intn(2) == 0 {
				p.ContendedPorts = randString()
				p.ContendedInstrs = []int{rng.Intn(10)}
			}
			if rng.Intn(2) == 0 {
				p.FrontEndSource = randString()
				p.CriticalChain = []int{rng.Intn(10), -rng.Intn(10)}
			}
			results = append(results, BatchResult{Prediction: &p})
		}
		checkIdentical(t, "randomized", BatchResponse{Results: results})
	}
}

// TestEncodeInvalidModeFallsBack: Mode.MarshalText rejects an out-of-range
// mode, failing the generic encoder's document, so the fast encoder refuses
// it too instead of inventing a wire value.
func TestEncodeInvalidModeFallsBack(t *testing.T) {
	p := samplePrediction()
	p.Mode = facile.Mode(7)
	for name, v := range map[string]any{
		"analysis": &facile.Analysis{Prediction: p},
		"batch":    inBatch(p),
	} {
		var buf bytes.Buffer
		if writeJSONFast(&buf, v) || buf.Len() != 0 {
			t.Errorf("%s: writeJSONFast accepted an invalid mode (wrote %d bytes)", name, buf.Len())
		}
		if _, err := json.Marshal(v); err == nil {
			t.Errorf("%s: encoding/json accepted an invalid mode", name)
		}
	}
}
