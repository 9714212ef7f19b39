package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmarkSpec is the metric list of BENCHMARK.json: each metric's unit
// and direction, and each end-to-end metric's regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet is the values of each workload × metric across a set of runs.
type runSet map[string]map[string][]float64

func loadRuns(paths []string) (runSet, error) {
	set := runSet{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range doc.Results {
			if set[r.Workload] == nil {
				set[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				set[r.Workload][name] = append(set[r.Workload][name], v.Value)
			}
			for name, v := range r.Extra {
				if strings.HasPrefix(name, measuredPrefix) {
					set[r.Workload][name] = append(set[r.Workload][name], v.Value)
				}
			}
		}
	}
	return set, nil
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) (q1, med, q3, rel float64) {
	q1, med, q3 = quartiles(xs)
	return q1, med, q3, (q3 - q1) / math.Abs(med)
}

// verdict judges set B against set A for one metric. A change worse than
// bound is a regression; when either set's own spread exceeds the bound
// the comparison is unresolved, unless every run of B beats every run of A.
func verdict(a, b []float64, lowerBetter bool, bound float64) (change float64, v string) {
	_, ma, _, sa := spread(a)
	_, mb, _, sb := spread(b)
	change = (mb - ma) / math.Abs(ma)
	worse := change
	if !lowerBetter {
		worse = -change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return change, "better"
	case sa > bound || sb > bound:
		return change, "unresolved"
	case worse > bound:
		return change, "REGRESSION"
	}
	return change, "ok"
}

// compareMain prints median and quartiles per workload × end-to-end metric
// for one set of result documents, or for two sets separated by "--", with
// a verdict against the bounds in BENCHMARK.json. It exits 1 on a
// regression. The verdict is on the metrics as reported, timings at the
// reference speed; where the timings as measured give another verdict, the
// line says so.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (for BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	var aFiles, bFiles []string
	if i := slices.Index(files, "--"); i >= 0 {
		aFiles, bFiles = files[:i], files[i+1:]
	} else {
		aFiles = files
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	if len(aFiles) == 0 {
		return fail(fmt.Errorf("usage: compare A.json ... [-- B.json ...]"))
	}
	data, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	a, err := loadRuns(aFiles)
	if err != nil {
		return fail(err)
	}
	var b runSet
	if len(bFiles) > 0 {
		if b, err = loadRuns(bFiles); err != nil {
			return fail(err)
		}
	}
	workloads := make([]string, 0, len(a))
	for name := range a {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	status := 0
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			xs := a[wl][m.Name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3, rel := spread(xs)
			line := fmt.Sprintf("%-12s %-16s A n=%-2d median %-12.6g [%.6g, %.6g] spread %5.1f%%",
				wl, m.Name, len(xs), med, q1, q3, 100*rel)
			if b == nil {
				v := "ok"
				if rel > m.Bound {
					v = "unresolved"
				}
				if mx := a[wl][measuredPrefix+m.Name]; len(mx) > 0 {
					_, _, _, mrel := spread(mx)
					v += fmt.Sprintf("  (measured spread %.1f%%)", 100*mrel)
				}
				fmt.Fprintf(w, "%s  bound %4.1f%%  %s\n", line, 100*m.Bound, v)
				continue
			}
			ys := b[wl][m.Name]
			if len(ys) == 0 {
				fmt.Fprintf(w, "%s  B missing\n", line)
				status = 1
				continue
			}
			bq1, bmed, bq3, brel := spread(ys)
			change, v := verdict(xs, ys, m.Better == "lower", m.Bound)
			if v == "REGRESSION" {
				status = 1
			}
			mx, my := a[wl][measuredPrefix+m.Name], b[wl][measuredPrefix+m.Name]
			if len(mx) > 0 && len(my) > 0 {
				if mchange, mv := verdict(mx, my, m.Better == "lower", m.Bound); mv != v {
					v += fmt.Sprintf("; as measured: change %+.1f%% %s, measured and scaled disagree", 100*mchange, mv)
				}
			}
			fmt.Fprintf(w, "%s | B n=%-2d median %-12.6g [%.6g, %.6g] spread %5.1f%% | change %+6.1f%% bound %4.1f%% %s\n",
				line, len(ys), bmed, bq1, bq3, 100*brel, 100*change, 100*m.Bound, v)
		}
	}
	return status
}
