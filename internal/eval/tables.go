package eval

import (
	"fmt"
	"strings"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/core"
	"facile/internal/metrics"
	"facile/internal/uarch"
)

// Table1 renders the microarchitecture inventory (paper Table 1).
func Table1() string {
	var sb strings.Builder
	sb.WriteString("TABLE 1: Microarchitectures used for the evaluation\n")
	sb.WriteString(fmt.Sprintf("%-14s %-5s %-9s %s\n", "uArch", "Abbr.", "Released", "CPU"))
	for _, cfg := range uarch.All() {
		sb.WriteString(fmt.Sprintf("%-14s %-5s %-9d %s\n",
			cfg.FullName, cfg.Name, cfg.Released, cfg.CPU))
	}
	return sb.String()
}

// AccuracyRow is one predictor's accuracy on one suite.
type AccuracyRow struct {
	Arch      string
	Predictor string
	MAPEU     float64
	KendallU  float64
	MAPEL     float64
	KendallL  float64
}

// Table2 runs all predictors on all microarchitectures (paper Table 2).
// corpusN and trainN size the evaluation and training corpora.
func Table2(corpusN, trainN int, arches []*uarch.Config) ([]AccuracyRow, string) {
	corpus := bhive.Generate(DefaultSeed, corpusN)
	var rows []AccuracyRow
	var sb strings.Builder
	sb.WriteString("TABLE 2: Comparison of predictors on BHiveU and BHiveL\n")
	sb.WriteString(fmt.Sprintf("%-5s %-12s %10s %9s %10s %9s\n",
		"uArch", "Predictor", "MAPE(U)", "Kend(U)", "MAPE(L)", "Kend(L)"))
	for _, cfg := range arches {
		suite := BuildSuite(cfg, corpus)
		for _, pred := range field(cfg, paperField, trainN) {
			row := AccuracyRow{Arch: cfg.Name, Predictor: pred.Name()}
			row.MAPEU, row.KendallU = score(suite.MeasU, PredictAll(pred, suite.BlocksU, false))
			row.MAPEL, row.KendallL = score(suite.MeasL, PredictAll(pred, suite.BlocksL, true))
			rows = append(rows, row)
			sb.WriteString(fmt.Sprintf("%-5s %-12s %10s %9.4f %10s %9.4f\n",
				row.Arch, row.Predictor, fmtPct(row.MAPEU), row.KendallU,
				fmtPct(row.MAPEL), row.KendallL))
		}
	}
	return rows, sb.String()
}

// VariantRow is one Facile-variant ablation result (paper Table 3).
type VariantRow struct {
	Arch     string
	Variant  string
	MAPEU    float64
	KendallU float64
	MAPEL    float64
	KendallL float64
	// HasU / HasL: whether the variant applies to the mode (cells in the
	// paper's Table 3 are empty for components not used by a mode).
	HasU, HasL bool
}

type variantSpec struct {
	name string
	opts core.Options
	// onlyTPL marks variants that reference loop-only components.
	onlyTPL bool
	onlyTPU bool
}

func table3Variants() []variantSpec {
	all := core.AllComponents
	v := []variantSpec{
		{name: "Facile", opts: core.Options{}},
		{name: "Facile w/ SimplePredec", opts: core.Options{SimplePredec: true}, onlyTPU: true},
		{name: "Facile w/ SimpleDec", opts: core.Options{SimpleDec: true}, onlyTPU: true},
		{name: "only Predec", opts: core.Options{Include: core.Set(core.Predec)}, onlyTPU: true},
		{name: "only Dec", opts: core.Options{Include: core.Set(core.Dec)}, onlyTPU: true},
		{name: "only DSB", opts: core.Options{Include: core.Set(core.DSB)}, onlyTPL: true},
		{name: "only LSD", opts: core.Options{Include: core.Set(core.LSD)}, onlyTPL: true},
		{name: "only Issue", opts: core.Options{Include: core.Set(core.Issue)}},
		{name: "only Ports", opts: core.Options{Include: core.Set(core.Ports)}},
		{name: "only Precedence", opts: core.Options{Include: core.Set(core.Precedence)}},
		{name: "only Predec+Ports", opts: core.Options{Include: core.Set(core.Predec, core.Ports)}, onlyTPU: true},
		{name: "only Precedence+Ports", opts: core.Options{Include: core.Set(core.Precedence, core.Ports)}},
		{name: "Facile w/o Predec", opts: core.Options{Include: all.Without(core.Predec)}, onlyTPU: true},
		{name: "Facile w/o Dec", opts: core.Options{Include: all.Without(core.Dec)}, onlyTPU: true},
		{name: "Facile w/o DSB", opts: core.Options{Include: all.Without(core.DSB)}, onlyTPL: true},
		{name: "Facile w/o LSD", opts: core.Options{Include: all.Without(core.LSD)}, onlyTPL: true},
		{name: "Facile w/o Issue", opts: core.Options{Include: all.Without(core.Issue)}},
		{name: "Facile w/o Ports", opts: core.Options{Include: all.Without(core.Ports)}},
		{name: "Facile w/o Precedence", opts: core.Options{Include: all.Without(core.Precedence)}},
	}
	return v
}

// Table3 computes the component-ablation study (paper Table 3) on the given
// microarchitectures (the paper uses RKL, SKL, SNB).
//
// The inclusion-set variants ("only X", "Facile w/o X") are pure
// recombinations of one bound vector per block: the per-component bounds
// are computed once and then folded under each variant's inclusion set
// in-memory, so the 19-variant table costs three bound computations per
// block (full, SimplePredec, SimpleDec) instead of nineteen predictions.
func Table3(corpusN int, arches []*uarch.Config) ([]VariantRow, string) {
	corpus := bhive.Generate(DefaultSeed, corpusN)
	var rows []VariantRow
	var sb strings.Builder
	sb.WriteString("TABLE 3: Influence of components on the prediction accuracy\n")
	sb.WriteString(fmt.Sprintf("%-5s %-24s %10s %9s %10s %9s\n",
		"uArch", "Variant", "MAPE(U)", "Kend(U)", "MAPE(L)", "Kend(L)"))
	for _, cfg := range arches {
		suite := BuildSuite(cfg, corpus)
		boundsU := suiteBounds(suite.BlocksU, core.TPU)
		boundsL := suiteBounds(suite.BlocksL, core.TPL)
		for _, spec := range table3Variants() {
			row := VariantRow{Arch: cfg.Name, Variant: spec.name}
			if !spec.onlyTPL {
				row.MAPEU, row.KendallU = score(suite.MeasU, combineVariant(suite.BlocksU, boundsU, core.TPU, spec.opts))
				row.HasU = true
			}
			if !spec.onlyTPU {
				row.MAPEL, row.KendallL = score(suite.MeasL, combineVariant(suite.BlocksL, boundsL, core.TPL, spec.opts))
				row.HasL = true
			}
			rows = append(rows, row)
			u1, u2, l1, l2 := "", "", "", ""
			if row.HasU {
				u1, u2 = fmtPct(row.MAPEU), fmt.Sprintf("%.4f", row.KendallU)
			}
			if row.HasL {
				l1, l2 = fmtPct(row.MAPEL), fmt.Sprintf("%.4f", row.KendallL)
			}
			sb.WriteString(fmt.Sprintf("%-5s %-24s %10s %9s %10s %9s\n",
				row.Arch, row.Variant, u1, u2, l1, l2))
		}
	}
	return rows, sb.String()
}

// suiteBounds computes the full per-component bound vector of every block
// once; the ablation variants recombine them.
func suiteBounds(blocks []*bb.Block, mode core.Mode) []core.Bounds {
	a := core.NewAnalysis()
	out := make([]core.Bounds, len(blocks))
	for i, block := range blocks {
		out[i] = a.ComputeBounds(block, mode, core.Options{})
	}
	return out
}

// combineVariant evaluates one Table 3 variant. Inclusion-set variants fold
// the precomputed bound vectors; the Simple* model variants replace a
// predictor and therefore need their own bound computation.
func combineVariant(blocks []*bb.Block, bounds []core.Bounds, mode core.Mode, opts core.Options) []float64 {
	out := make([]float64, len(blocks))
	if opts.SimplePredec || opts.SimpleDec {
		a := core.NewAnalysis()
		for i, block := range blocks {
			out[i] = metrics.Round2(a.Predict(block, mode, opts).TP)
		}
		return out
	}
	for i := range bounds {
		out[i] = metrics.Round2(bounds[i].Combine(mode, opts.Include).TP)
	}
	return out
}

// SpeedupRow is one microarchitecture's idealization speedups (Table 4),
// indexed by core.Component. Components outside the table's scope hold the
// neutral speedup 1.
type SpeedupRow struct {
	Arch     string
	Speedups [core.NumComponents]float64
}

// Table4 answers the counterfactual question of the paper's Table 4: the
// aggregate speedup (total predicted cycles over the BHiveU suite) when one
// component is made infinitely fast. Each block contributes one bound
// computation; the per-component idealizations are recombinations of that
// vector.
func Table4(corpusN int, arches []*uarch.Config) ([]SpeedupRow, string) {
	corpus := bhive.Generate(DefaultSeed, corpusN)
	comps := []core.Component{core.Predec, core.Dec, core.Issue, core.Ports, core.Precedence}
	var rows []SpeedupRow
	var sb strings.Builder
	sb.WriteString("TABLE 4: Speedup when idealizing a single component (TPU)\n")
	sb.WriteString(fmt.Sprintf("%-5s", "uArch"))
	for _, c := range comps {
		sb.WriteString(fmt.Sprintf(" %10s", c))
	}
	sb.WriteString("\n")
	a := core.NewAnalysis()
	for _, cfg := range arches {
		suite := BuildSuite(cfg, corpus)
		row := SpeedupRow{Arch: cfg.Name}
		for c := range row.Speedups {
			row.Speedups[c] = 1
		}
		base := 0.0
		var ideal [core.NumComponents]float64
		for _, block := range suite.BlocksU {
			b := a.ComputeBounds(block, core.TPU, core.Options{})
			base += b.Combine(core.TPU, core.AllComponents).TP
			for _, c := range comps {
				ideal[c] += b.Combine(core.TPU, core.AllComponents.Without(c)).TP
			}
		}
		sb.WriteString(fmt.Sprintf("%-5s", cfg.Name))
		for _, c := range comps {
			sp := 1.0
			if ideal[c] > 0 {
				sp = base / ideal[c]
			}
			row.Speedups[c] = sp
			sb.WriteString(fmt.Sprintf(" %10.2f", sp))
		}
		sb.WriteString("\n")
		rows = append(rows, row)
	}
	return rows, sb.String()
}
