package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself as a child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// summaryLine is the last line of the benchmark's standard output.
type summaryLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// TestSmoke runs every workload at about 1% size, traced, at seed 1: the
// outputs must match the committed smoke goldens, every end-to-end and
// per-layer metric BENCHMARK.json names must be reported in its unit, and
// the last line must be the result object.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds facile-serve and runs every workload")
	}
	out := filepath.Join(t.TempDir(), "r.json")
	var stdout bytes.Buffer
	start := time.Now()
	code := run([]string{"-smoke", "-trace", "1", "-seed", "1", "-root", "..", "-out", out}, &stdout)
	t.Logf("smoke run took %v", time.Since(start))
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(workloads) {
		t.Fatalf("%d results for %d workloads", len(doc.Results), len(workloads))
	}
	spec := readSpec(t)
	for _, r := range doc.Results {
		for _, m := range spec.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (want a positive value in %s)", r.Workload, m.Name, v, m.Unit)
			}
		}
		for _, m := range spec.PerLayer {
			if v, ok := r.Layers[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (want a value in %s)", r.Workload, m.Name, v, m.Unit)
			}
		}
		// Run alone, as the contract runs it, a workload's last line names
		// exactly the metrics BENCHMARK.json lists.
		for _, trace := range []bool{false, true} {
			line, ok := summary(&config{trace: trace}, []*result{r})
			var got summaryLine
			if err := json.Unmarshal([]byte(line), &got); err != nil || !ok {
				t.Fatalf("%s: summary %s: %v", r.Workload, line, err)
			}
			want := spec.names(trace)
			if names := sortedKeys(got.Metrics); !slices.Equal(names, want) {
				t.Errorf("%s trace=%v: summary names %v, BENCHMARK.json %v", r.Workload, trace, names, want)
			}
		}
	}
}

// names returns the sorted names of the end-to-end metrics, or with trace
// the per-layer ones.
func (s *benchmarkSpec) names(trace bool) []string {
	var out []string
	if trace {
		for _, m := range s.PerLayer {
			out = append(out, m.Name)
		}
	} else {
		for _, m := range s.EndToEnd {
			out = append(out, m.Name)
		}
	}
	slices.Sort(out)
	return out
}

func sortedKeys(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}
