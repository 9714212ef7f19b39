package eval

import (
	"fmt"
	"strings"
	"time"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/metrics"
	"facile/internal/uarch"
)

// Figure3 renders measured-versus-predicted heatmaps for BHiveL blocks with
// a measured throughput below 10 cycles (paper Figure 3; the paper uses
// Rocket Lake). Cells are 1x1-cycle bins rendered as digit density
// (log10 of the count).
func Figure3(corpusN int, cfg *uarch.Config) string {
	corpus := bhive.Generate(DefaultSeed, corpusN)
	suite := BuildSuite(cfg, corpus)
	preds := field(cfg, []string{"facile", "uica", "llvm-mca", "cqa"}, 0)
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("FIGURE 3: Measured vs predicted heatmaps, BHiveL, %s, <10 cycles\n", cfg.Name))
	for _, pred := range preds {
		pl := PredictAll(pred, suite.BlocksL, true)
		sb.WriteString(heatmap(pred.Name(), suite.MeasL, pl))
	}
	return sb.String()
}

func heatmap(name string, measured, predicted []float64) string {
	const size = 10
	var grid [size][size]int
	total := 0
	for i := range measured {
		m, p := measured[i], predicted[i]
		if m >= size || m < 0 || !(p >= 0) { // !(p >= 0) also drops NaN
			continue
		}
		pi := int(p)
		if pi >= size {
			pi = size - 1
		}
		grid[int(m)][pi]++
		total++
	}
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("\n  %s (%d blocks; rows: measured, cols: predicted; digit = log10 count)\n", name, total))
	for m := size - 1; m >= 0; m-- {
		sb.WriteString(fmt.Sprintf("  %2d |", m))
		for p := 0; p < size; p++ {
			c := grid[m][p]
			ch := " "
			switch {
			case c == 0:
			case c < 10:
				ch = "1"
			case c < 100:
				ch = "2"
			case c < 1000:
				ch = "3"
			default:
				ch = "4"
			}
			marker := " "
			if m == p {
				marker = "."
				if ch != " " {
					marker = ""
				}
			}
			if ch == " " && marker == "." {
				sb.WriteString(" .")
			} else {
				sb.WriteString(" " + ch)
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("      " + strings.Repeat("--", 10) + "\n")
	return sb.String()
}

// ComponentTime is a per-component timing distribution (paper Figure 4).
type ComponentTime struct {
	Name             string
	MeanMs, P50, P90 float64
}

// Figure4 measures the per-benchmark execution-time of Facile's components
// (plus the shared decode/lookup overhead), under TPU and TPL.
func Figure4(corpusN int, cfg *uarch.Config) ([]ComponentTime, []ComponentTime, string) {
	corpus := bhive.Generate(DefaultSeed, corpusN)

	type compFn struct {
		name string
		fn   func(*bb.Block)
	}
	tpuComps := []compFn{
		{"Predec", func(b *bb.Block) { core.PredecBound(b, core.TPU) }},
		{"Dec", func(b *bb.Block) { core.DecBound(b) }},
		{"Issue", func(b *bb.Block) { core.IssueBound(b) }},
		{"Ports", func(b *bb.Block) { core.PortsBound(b) }},
		{"Precedence", func(b *bb.Block) { core.PrecedenceBound(b) }},
	}
	tplComps := []compFn{
		{"Predec", func(b *bb.Block) { core.PredecBound(b, core.TPL) }},
		{"Dec", func(b *bb.Block) { core.DecBound(b) }},
		{"DSB", func(b *bb.Block) { core.DSBBound(b) }},
		{"LSD", func(b *bb.Block) { core.LSDBound(b) }},
		{"Issue", func(b *bb.Block) { core.IssueBound(b) }},
		{"Ports", func(b *bb.Block) { core.PortsBound(b) }},
		{"Precedence", func(b *bb.Block) { core.PrecedenceBound(b) }},
	}

	measure := func(codes [][]byte, comps []compFn, mode core.Mode) []ComponentTime {
		var out []ComponentTime

		// Overhead: decoding + descriptor lookup (the "parse/disassemble"
		// analog of the paper's overhead category).
		overhead := timePerBenchmark(codes, func(code []byte) {
			_, _ = bb.Build(cfg, code)
		})
		out = append(out, ComponentTime{Name: "Overhead", MeanMs: overhead.mean, P50: overhead.p50, P90: overhead.p90})

		blocks := make([]*bb.Block, 0, len(codes))
		for _, code := range codes {
			if b, err := bb.Build(cfg, code); err == nil {
				blocks = append(blocks, b)
			}
		}
		for _, cf := range comps {
			samples := make([]float64, 0, len(blocks))
			for _, b := range blocks {
				start := time.Now()
				cf.fn(b)
				samples = append(samples, float64(time.Since(start).Nanoseconds())/1e6)
			}
			out = append(out, ComponentTime{
				Name:   cf.name,
				MeanMs: metrics.Mean(samples),
				P50:    metrics.Percentile(samples, 50),
				P90:    metrics.Percentile(samples, 90),
			})
		}
		// Full Facile prediction for reference.
		fullSamples := make([]float64, 0, len(blocks))
		for _, b := range blocks {
			start := time.Now()
			core.Predict(b, mode, core.Options{})
			fullSamples = append(fullSamples, float64(time.Since(start).Nanoseconds())/1e6)
		}
		out = append(out, ComponentTime{
			Name:   "FACILE",
			MeanMs: metrics.Mean(fullSamples) + overhead.mean,
			P50:    metrics.Percentile(fullSamples, 50),
			P90:    metrics.Percentile(fullSamples, 90),
		})
		return out
	}

	codesU := make([][]byte, len(corpus))
	codesL := make([][]byte, len(corpus))
	for i, bm := range corpus {
		codesU[i] = bm.Code
		codesL[i] = bm.LoopCode
	}
	tpu := measure(codesU, tpuComps, core.TPU)
	tpl := measure(codesL, tplComps, core.TPL)

	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("FIGURE 4: Execution times of Facile's components on %s (ms/benchmark)\n", cfg.Name))
	render := func(title string, cts []ComponentTime) {
		sb.WriteString(fmt.Sprintf("\n  (%s)\n  %-12s %12s %12s %12s\n", title, "component", "mean", "p50", "p90"))
		for _, ct := range cts {
			sb.WriteString(fmt.Sprintf("  %-12s %12.5f %12.5f %12.5f\n", ct.Name, ct.MeanMs, ct.P50, ct.P90))
		}
	}
	render("TPU", tpu)
	render("TPL", tpl)
	return tpu, tpl, sb.String()
}

type timing struct{ mean, p50, p90 float64 }

func timePerBenchmark(codes [][]byte, fn func([]byte)) timing {
	samples := make([]float64, 0, len(codes))
	for _, code := range codes {
		start := time.Now()
		fn(code)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return timing{
		mean: metrics.Mean(samples),
		p50:  metrics.Percentile(samples, 50),
		p90:  metrics.Percentile(samples, 90),
	}
}

// PredictorTime is one predictor's per-benchmark cost (paper Figure 5).
type PredictorTime struct {
	Name     string
	MsU, MsL float64
}

// Figure5 measures end-to-end prediction time per benchmark (including
// block preparation, as the paper's measurements include disassembly) for
// every predictor, on the Skylake suite as in the paper.
func Figure5(corpusN, trainN int, cfg *uarch.Config) ([]PredictorTime, string) {
	corpus := bhive.Generate(DefaultSeed, corpusN)
	preds := field(cfg, paperField, trainN)

	var rows []PredictorTime
	for _, pred := range preds {
		pred := pred
		timeMode := func(loop bool) float64 {
			start := time.Now()
			n := 0
			for _, bm := range corpus {
				code := bm.Code
				if loop {
					code = bm.LoopCode
				}
				block, err := bb.Build(cfg, code)
				if err != nil {
					continue
				}
				pred.Predict(block, loop)
				n++
			}
			if n == 0 {
				return 0
			}
			return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(n)
		}
		rows = append(rows, PredictorTime{Name: pred.Name(), MsU: timeMode(false), MsL: timeMode(true)})
	}

	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("FIGURE 5: Time per benchmark by predictor on %s (ms)\n", cfg.Name))
	sb.WriteString(fmt.Sprintf("  %-12s %12s %12s\n", "predictor", "TPU", "TPL"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("  %-12s %12.5f %12.5f\n", r.Name, r.MsU, r.MsL))
	}
	return rows, sb.String()
}

// BottleneckFlow computes the per-benchmark primary bottleneck (TPU) on a
// chain of microarchitectures and the transitions between consecutive ones
// (paper Figure 6: Sandy Bridge -> Haswell -> Cascade Lake -> Rocket Lake).
func BottleneckFlow(corpusN int, chain []*uarch.Config) string {
	corpus := bhive.Generate(DefaultSeed, corpusN)
	comps := []core.Component{core.Predec, core.Dec, core.Issue, core.Ports, core.Precedence}

	// bottlenecks[ci][bi] = component (or -1 if the block is unsupported).
	// One shared Analysis serves the whole sweep.
	a := core.NewAnalysis()
	bottlenecks := make([][]int, len(chain))
	for ci, cfg := range chain {
		bottlenecks[ci] = make([]int, len(corpus))
		for bi, bm := range corpus {
			block, err := bb.Build(cfg, bm.Code)
			if err != nil {
				bottlenecks[ci][bi] = -1
				continue
			}
			p := a.Predict(block, core.TPU, core.Options{})
			bottlenecks[ci][bi] = int(p.PrimaryBottleneck())
		}
	}

	var sb strings.Builder
	sb.WriteString("FIGURE 6: Evolution of bottlenecks under TPU\n")
	for ci, cfg := range chain {
		counts := map[int]int{}
		total := 0
		for _, b := range bottlenecks[ci] {
			if b >= 0 {
				counts[b]++
				total++
			}
		}
		sb.WriteString(fmt.Sprintf("\n  %s bottleneck shares:\n", cfg.Name))
		for _, c := range comps {
			share := float64(counts[int(c)]) / float64(max(1, total))
			bar := strings.Repeat("#", int(share*50))
			sb.WriteString(fmt.Sprintf("    %-10s %6.1f%% %s\n", c, share*100, bar))
		}
	}
	for ci := 0; ci+1 < len(chain); ci++ {
		sb.WriteString(fmt.Sprintf("\n  Transitions %s -> %s (rows: from, cols: to):\n",
			chain[ci].Name, chain[ci+1].Name))
		sb.WriteString(fmt.Sprintf("    %-10s", ""))
		for _, c := range comps {
			sb.WriteString(fmt.Sprintf(" %10s", c))
		}
		sb.WriteString("\n")
		for _, from := range comps {
			sb.WriteString(fmt.Sprintf("    %-10s", from))
			for _, to := range comps {
				n := 0
				for bi := range corpus {
					if bottlenecks[ci][bi] == int(from) && bottlenecks[ci+1][bi] == int(to) {
						n++
					}
				}
				sb.WriteString(fmt.Sprintf(" %10d", n))
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
