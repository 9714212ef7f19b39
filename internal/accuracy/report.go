package accuracy

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// APE is an absolute-percentage-error percentile, in percent. JSON has no
// infinity, so the overflow value (+Inf, meaning "beyond the histogram's
// 200% range") marshals as the string ">200%" and round-trips back to +Inf.
type APE float64

func (a APE) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(a), 1) {
		return []byte(`">200%"`), nil
	}
	return json.Marshal(float64(a))
}

func (a *APE) UnmarshalJSON(b []byte) error {
	// The overflow sentinel arrives as a JSON string — decode it as one
	// (encoders may escape '>' as >, so no raw byte compare).
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		if s != ">200%" {
			return fmt.Errorf("accuracy: bad percentile %q (want a number or \">200%%\")", s)
		}
		*a = APE(math.Inf(1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*a = APE(v)
	return nil
}

// PredictorResult is one predictor's accuracy on one corpus.
type PredictorResult struct {
	Predictor string `json:"predictor"`
	// Blocks is the evaluated population: corpus rows with a positive
	// measurement that the predictor scored.
	Blocks int64 `json:"blocks_evaluated"`
	// ZeroMeasured counts rows skipped for a zero measurement.
	ZeroMeasured int64 `json:"zero_measured,omitempty"`
	// NonFinite counts rows skipped because the measurement or the
	// prediction was NaN or infinite.
	NonFinite int64 `json:"non_finite,omitempty"`
	// Errors counts rows where the predictor itself failed (a subprocess
	// referee rejecting a block, say); such rows are excluded from this
	// predictor's statistics only.
	Errors int64 `json:"errors,omitempty"`
	// MAPE is the mean absolute percentage error, in percent.
	MAPE float64 `json:"mape"`
	// KendallTau is Kendall's tau-b between measurements and predictions.
	KendallTau float64 `json:"kendall_tau"`
	// P50/P90/P99 are absolute-percentage-error percentiles in percent, at
	// the accumulator's bucket granularity. +Inf means "beyond the
	// histogram range" and renders as >200%.
	P50 APE `json:"p50_ape"`
	P90 APE `json:"p90_ape"`
	P99 APE `json:"p99_ape"`
}

// CorpusResult is one (arch, mode) corpus evaluation.
type CorpusResult struct {
	Arch string `json:"arch"`
	Mode string `json:"mode"`
	File string `json:"file"`
	// Rows counts parsed corpus rows; Skipped counts rows no predictor saw
	// because the block does not decode/build on the target arch.
	Rows    int64 `json:"rows"`
	Skipped int64 `json:"skipped,omitempty"`
	// SkipNotes carries the first few skip reasons, line-numbered.
	SkipNotes  []string          `json:"skip_notes,omitempty"`
	Predictors []PredictorResult `json:"predictors"`
}

// Report is one facile-bench run: every corpus evaluated, in argument order.
type Report struct {
	// Command is the exact command line that reproduces this report.
	Command string `json:"command,omitempty"`
	// TrainSeed/TrainN record how the learned opponents were fitted.
	TrainSeed int64          `json:"train_seed,omitempty"`
	TrainN    int            `json:"train_n,omitempty"`
	Corpora   []CorpusResult `json:"corpora"`
}

// Summary is one flat accuracy record: the per-(arch, mode, predictor)
// columns that BENCH_*.json carries and the drift gate compares.
type Summary struct {
	Arch       string  `json:"arch"`
	Mode       string  `json:"mode"`
	Predictor  string  `json:"predictor"`
	Blocks     int64   `json:"blocks_evaluated"`
	MAPE       float64 `json:"mape"`
	KendallTau float64 `json:"kendall_tau"`
}

// Summaries flattens the report into drift-comparable records, in report
// order.
func (r *Report) Summaries() []Summary {
	var out []Summary
	for _, c := range r.Corpora {
		for _, p := range c.Predictors {
			out = append(out, Summary{
				Arch:       c.Arch,
				Mode:       c.Mode,
				Predictor:  p.Predictor,
				Blocks:     p.Blocks,
				MAPE:       p.MAPE,
				KendallTau: p.KendallTau,
			})
		}
	}
	return out
}

// fmtAPE renders an error-percentile cell; +Inf (beyond the histogram) as
// the open upper bound.
func fmtAPE(v APE) string {
	if math.IsInf(float64(v), 1) {
		return ">200%"
	}
	return fmt.Sprintf("%.2f%%", v)
}

// Text renders the report as a deterministic fixed-width table: identical
// inputs produce identical bytes, regardless of worker counts or machine.
func (r *Report) Text() string {
	var sb strings.Builder
	sb.WriteString("facile-bench accuracy report\n")
	if r.Command != "" {
		fmt.Fprintf(&sb, "command: %s\n", r.Command)
	}
	if r.TrainN > 0 {
		fmt.Fprintf(&sb, "learned opponents: trained on %d blocks (seed %d)\n", r.TrainN, r.TrainSeed)
	}
	for i := range r.Corpora {
		c := &r.Corpora[i]
		sb.WriteString("\n")
		fmt.Fprintf(&sb, "== %s/%s: %s (%d rows", c.Arch, c.Mode, c.File, c.Rows)
		if c.Skipped > 0 {
			fmt.Fprintf(&sb, ", %d skipped", c.Skipped)
		}
		sb.WriteString(")\n")
		for _, note := range c.SkipNotes {
			fmt.Fprintf(&sb, "   skip: %s\n", note)
		}
		fmt.Fprintf(&sb, "%-14s %7s %9s %9s %8s %8s %8s %6s\n",
			"predictor", "blocks", "MAPE", "Kendall", "P50", "P90", "P99", "errs")
		for _, p := range c.Predictors {
			fmt.Fprintf(&sb, "%-14s %7d %8.2f%% %9.4f %8s %8s %8s %6d\n",
				p.Predictor, p.Blocks, p.MAPE, p.KendallTau,
				fmtAPE(p.P50), fmtAPE(p.P90), fmtAPE(p.P99), p.Errors)
		}
	}
	return sb.String()
}
