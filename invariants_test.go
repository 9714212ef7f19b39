package facile_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"facile"
	"facile/internal/bhive"
)

// TestAnalysisInvariants checks the model's compositional invariants on
// generated corpora for every built-in microarchitecture in both modes,
// through the batch kernel at DetailFull:
//
//   - CyclesPerIteration is the rounded maximum over the bounds the mode
//     considers (TPU: Predec, Dec, Issue, Ports, Precedence; TPL: the
//     selected front end plus Issue, Ports, Precedence);
//   - Bottlenecks lists exactly the flagged bounds, in order, and a bound is
//     flagged iff it is considered and attains that maximum;
//   - ReportText names Bottlenecks[0] as the primary bottleneck and lists
//     one block line per instruction, marked from the primary bottleneck's
//     evidence.
func TestAnalysisInvariants(t *testing.T) {
	const eps = 1e-9
	e := newTestEngine(t, facile.EngineConfig{Registry: facile.NewArchRegistry()})
	var codes [][]byte
	for _, b := range bhive.GenerateBlocks(13, 120) {
		codes = append(codes, b.Code)
	}
	// A 300-instruction imul chain: a block longer than the report
	// renderer's stack marker space, every instruction on the critical
	// cycle.
	codes = append(codes, decode(t, strings.Repeat("480fafc0", 300)))

	for _, arch := range e.Archs() {
		for _, mode := range []facile.Mode{facile.Unroll, facile.Loop} {
			reqs := make([]facile.Request, len(codes))
			for i, code := range codes {
				reqs[i] = facile.Request{Code: code, Arch: arch, Mode: mode, Detail: facile.DetailFull}
			}
			for i, res := range e.AnalyzeBatchN(context.Background(), reqs, 2) {
				if res.Err != nil {
					t.Fatalf("%s %v block %d: %v", arch, mode, i, res.Err)
				}
				if err := checkInvariants(res.Analysis, eps); err != nil {
					t.Fatalf("%s %v block %d (%x): %s\n%s", arch, mode, i, codes[i], err, res.Analysis.ReportText)
				}
			}
		}
	}
}

// checkInvariants reports the first invariant a violates.
func checkInvariants(a *facile.Analysis, eps float64) error {
	p := &a.Prediction
	considered := map[string]bool{"Issue": true, "Ports": true, "Precedence": true}
	if p.Mode == facile.Unroll {
		considered["Predec"], considered["Dec"] = true, true
	} else {
		considered[p.FrontEndSource] = true
		if p.FrontEndSource == "Predec" || p.FrontEndSource == "Dec" {
			// The JCC-erratum front end is the larger of the two.
			considered["Predec"], considered["Dec"] = true, true
		}
	}
	top := math.Inf(-1)
	for _, b := range a.Bounds {
		if considered[b.Component] && b.Cycles > top {
			top = b.Cycles
		}
	}
	if got, want := p.CyclesPerIteration, math.Round(top*100)/100; got != want {
		return fmt.Errorf("CyclesPerIteration %v, considered maximum rounds to %v", got, want)
	}

	var flagged []string
	names := facile.ComponentNames()
	last := -1
	for _, b := range a.Bounds {
		pos := slices.Index(names, b.Component)
		if pos <= last {
			return fmt.Errorf("bounds out of pipeline order: %+v", a.Bounds)
		}
		last = pos
		attains := considered[b.Component] && b.Cycles >= top-eps
		if b.Bottleneck != attains {
			return fmt.Errorf("bound %s flagged=%v, attains the maximum=%v", b.Component, b.Bottleneck, attains)
		}
		if b.Bottleneck {
			flagged = append(flagged, b.Component)
		}
	}
	if !slices.Equal(flagged, p.Bottlenecks) {
		return fmt.Errorf("Bottlenecks %v, flagged bounds %v", p.Bottlenecks, flagged)
	}

	text := a.ReportText
	if !strings.Contains(text, "\nPrimary bottleneck: "+p.Bottlenecks[0]+"\n") {
		return fmt.Errorf("report does not name %s as the primary bottleneck", p.Bottlenecks[0])
	}
	start := strings.Index(text, "\nBlock:\n")
	end := strings.Index(text, "\n\nComponent bounds")
	if start < 0 || end < start {
		return fmt.Errorf("report has no block section")
	}
	lines := strings.Split(text[start+len("\nBlock:\n"):end], "\n")
	if len(lines) != len(p.Instructions) {
		return fmt.Errorf("report lists %d block lines for %d instructions", len(lines), len(p.Instructions))
	}
	marker, marked := byte(' '), []int(nil)
	switch p.Bottlenecks[0] {
	case "Precedence":
		marker, marked = 'D', p.CriticalChain
	case "Ports":
		marker, marked = 'P', p.ContendedInstrs
	}
	for k, line := range lines {
		want := byte(' ')
		if slices.Contains(marked, k) {
			want = marker
		}
		// "  %2d" index, then " M " with marker M, then the instruction.
		idx, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
		if idx != strconv.Itoa(k) || len(rest) < 2 || rest[0] != want || rest[1] != ' ' || rest[2:] != p.Instructions[k] {
			return fmt.Errorf("block line %q, want index %d, marker %q, instruction %q", line, k, want, p.Instructions[k])
		}
	}
	return nil
}
