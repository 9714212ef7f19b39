package accuracy

import (
	"context"
	"math"
	"os"
	"strings"
	"testing"

	"facile"
	"facile/internal/bb"
	"facile/internal/uarch"
)

// TestAccumulatorSkipsNonFinite: a NaN or infinite value on either side of
// a pair is counted apart, like a zero measurement, and leaves MAPE, tau and
// the percentiles exactly as the finite pairs make them.
func TestAccumulatorSkipsNonFinite(t *testing.T) {
	clean := &Accumulator{}
	clean.Add(2, 1)
	clean.Add(4, 6)
	a := &Accumulator{}
	a.Add(2, 1)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a.Add(3, v)
		a.Add(v, 3)
	}
	a.Add(4, 6)
	a.Add(0, math.NaN()) // a zero measurement stays a zero measurement
	if a.Blocks() != 2 || a.NonFinite() != 5 || a.ZeroMeasured() != 2 {
		t.Fatalf("Blocks, NonFinite, ZeroMeasured = %d, %d, %d, want 2, 5, 2", a.Blocks(), a.NonFinite(), a.ZeroMeasured())
	}
	if a.MAPE() != clean.MAPE() || a.KendallTau() != clean.KendallTau() || a.PercentileAPE(90) != clean.PercentileAPE(90) {
		t.Fatalf("MAPE, tau, P90 = %v, %v, %v, want %v, %v, %v", a.MAPE(), a.KendallTau(), a.PercentileAPE(90),
			clean.MAPE(), clean.KendallTau(), clean.PercentileAPE(90))
	}
}

// nonFinitePredictor returns v for blocks of an even instruction count and
// the count itself for the others.
type nonFinitePredictor struct {
	name string
	v    float64
}

func (p nonFinitePredictor) Name() string { return p.name }

func (p nonFinitePredictor) Predict(b *bb.Block, loop bool) (float64, error) {
	if len(b.Insts)%2 == 0 {
		return p.v, nil
	}
	return float64(len(b.Insts)), nil
}

// TestRunCorpusNonFinitePredictor: a predictor that returns NaN or +Inf on
// some blocks is scored on the others; the rest are counted as non-finite
// in its result, and facile's result does not move.
func TestRunCorpusNonFinitePredictor(t *testing.T) {
	data, err := os.ReadFile("../../testdata/accuracy/skl_u.csv")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opps ...Opponent) *CorpusResult {
		rd := NewReader(strings.NewReader(string(data)), ReaderOptions{})
		res, err := RunCorpus(context.Background(), RunOptions{Engine: engine, Cfg: uarch.MustByName("SKL"), Chunk: 64, Opponents: opps},
			facile.Unroll, "skl_u.csv", rd)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	alone := run()
	res := run(Opponent{Predictor: nonFinitePredictor{"NaN", math.NaN()}}, Opponent{Predictor: nonFinitePredictor{"Inf", math.Inf(1)}})
	if res.Predictors[0] != alone.Predictors[0] {
		t.Fatalf("facile with opponents %+v, alone %+v", res.Predictors[0], alone.Predictors[0])
	}
	scored := res.Rows - res.Skipped
	for _, p := range res.Predictors[1:] {
		if p.Blocks == 0 || p.NonFinite == 0 || p.Blocks+p.NonFinite+p.ZeroMeasured != scored {
			t.Errorf("%s: %d blocks, %d non-finite, %d zero-measured, want both kinds summing to %d",
				p.Predictor, p.Blocks, p.NonFinite, p.ZeroMeasured, scored)
		}
		if math.IsNaN(p.MAPE) || math.IsInf(p.MAPE, 0) || math.IsNaN(p.KendallTau) {
			t.Errorf("%s: MAPE %v, tau %v", p.Predictor, p.MAPE, p.KendallTau)
		}
	}
	if a, b := res.Predictors[1], res.Predictors[2]; a.Blocks != b.Blocks || a.MAPE != b.MAPE || a.NonFinite != b.NonFinite {
		t.Errorf("NaN and +Inf predictors score differently: %+v, %+v", a, b)
	}
}
