package baselines

import (
	"testing"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/mca"
	"facile/internal/metrics"
	"facile/internal/uarch"
)

// trainingData prepares n blocks with simulated measurements. Measuring runs
// the cycle-accurate substrate per block, which dominates this suite's
// runtime, so tests that need it are gated behind -short.
func trainingData(t testing.TB, n int) ([]*bb.Block, []float64) {
	t.Helper()
	if tt, ok := t.(*testing.T); ok && testing.Short() {
		tt.Skip("measurement-substrate test skipped in -short mode")
	}
	corpus := bhive.Generate(4242, n)
	var blocks []*bb.Block
	var meas []float64
	for _, bm := range corpus {
		block, err := bb.Build(uarch.MustByName("SKL"), bm.Code)
		if err != nil {
			continue
		}
		blocks = append(blocks, block)
		meas = append(meas, bhive.MeasureBlock(block, false))
	}
	return blocks, meas
}

func TestAllPredictorsProducePositiveFinitePredictions(t *testing.T) {
	blocks, _ := trainingData(t, 120)
	var referee *mca.Referee
	if path, ok := mca.LookPath(); ok {
		referee = mca.NewReferee(path)
	}
	var names []string
	for _, name := range Names() {
		if name == "mca" && referee == nil {
			t.Log("no llvm-mca binary found; skipping the mca entrant")
			continue
		}
		names = append(names, name)
	}
	preds, trained, err := Field(uarch.MustByName("SKL"), names, 1001, 80, referee)
	if err != nil {
		t.Fatal(err)
	}
	if !trained || len(preds) != len(names) {
		t.Fatalf("field of %d predictors (trained %v) for %d names", len(preds), trained, len(names))
	}
	for _, pred := range preds {
		for _, block := range blocks[80:100] {
			for _, loop := range []bool{false, true} {
				v, err := pred.Predict(block, loop)
				if err != nil || v <= 0 || v != v || v > 1e6 {
					t.Errorf("%s: prediction %v, %v (loop=%v)", pred.Name(), v, err, loop)
				}
			}
		}
	}
}

// TestAccuracyOrdering verifies the paper's central Table 2 finding on held-
// out blocks: Facile and uiCA are substantially more accurate than the
// back-end-only and front-end-only baselines.
func TestAccuracyOrdering(t *testing.T) {
	blocks, meas := trainingData(t, 200)
	evalBlocks, evalMeas := blocks[100:], meas[100:]

	mape := func(p Predictor) float64 {
		preds := make([]float64, len(evalBlocks))
		for i, block := range evalBlocks {
			preds[i], _ = p.Predict(block, false)
		}
		return metrics.MAPE(evalMeas, preds)
	}

	facileErr := mape(Facile{})
	uicaErr := mape(UiCA{})
	mcaErr := mape(LLVMMCA{})
	cqaErr := mape(CQA{})
	osacaErr := mape(OSACA{})

	if facileErr > 0.06 {
		t.Errorf("Facile MAPE %.2f%% too high", facileErr*100)
	}
	if uicaErr > 0.02 {
		t.Errorf("uiCA MAPE %.2f%% too high", uicaErr*100)
	}
	if mcaErr < 2*facileErr {
		t.Errorf("llvm-mca (%.2f%%) must be far worse than Facile (%.2f%%)",
			mcaErr*100, facileErr*100)
	}
	if cqaErr < 2*facileErr {
		t.Errorf("CQA (%.2f%%) must be far worse than Facile (%.2f%%)",
			cqaErr*100, facileErr*100)
	}
	if osacaErr < 2*facileErr {
		t.Errorf("OSACA (%.2f%%) must be far worse than Facile (%.2f%%)",
			osacaErr*100, facileErr*100)
	}
}

// TestFacileOptimism: Facile never predicts more cycles than the
// measurement substrate reports (paper Figure 3 observation).
func TestFacileOptimism(t *testing.T) {
	blocks, meas := trainingData(t, 150)
	f := Facile{}
	violations := 0
	for i, block := range blocks {
		if p, _ := f.Predict(block, false); p > meas[i]+0.05 {
			violations++
			if violations < 4 {
				t.Logf("block %d: facile %v > measured %v", i, p, meas[i])
			}
		}
	}
	if violations > len(blocks)/100 {
		t.Fatalf("%d/%d optimism violations", violations, len(blocks))
	}
}

func TestLearnedModelsFitTrainingSet(t *testing.T) {
	blocks, meas := trainingData(t, 150)
	ith := TrainIthemal(blocks, meas)
	lbl := TrainLearningBL(blocks, meas)
	preds := make([]float64, len(blocks))
	for i, b := range blocks {
		preds[i], _ = ith.Predict(b, false)
	}
	if m := metrics.MAPE(meas, preds); m > 0.20 {
		t.Errorf("Ithemal train MAPE %.1f%% too high", m*100)
	}
	for i, b := range blocks {
		preds[i], _ = lbl.Predict(b, false)
	}
	if m := metrics.MAPE(meas, preds); m > 0.20 {
		t.Errorf("learning-bl train MAPE %.1f%% too high", m*100)
	}
}

func TestNNLSNonNegative(t *testing.T) {
	blocks, meas := trainingData(t, 80)
	lbl := TrainLearningBL(blocks, meas)
	for i, w := range lbl.model.weights {
		if w < 0 {
			t.Fatalf("weight %d is negative: %v", i, w)
		}
	}
}

func TestSolveGaussian(t *testing.T) {
	// 2x2 system: [2 1; 1 3] w = [5; 10] => w = (1, 3).
	g := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	w := solveGaussian(g, b)
	if len(w) != 2 || !near(w[0], 1) || !near(w[1], 3) {
		t.Fatalf("w = %v", w)
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestFieldRejects: Field refuses names outside the registry and an mca
// entrant without a referee.
func TestFieldRejects(t *testing.T) {
	skl := uarch.MustByName("SKL")
	if _, _, err := Field(skl, []string{"uica", "turboboost"}, 1001, 0, nil); err == nil {
		t.Error("unknown predictor accepted")
	}
	if _, _, err := Field(skl, []string{"mca"}, 1001, 0, nil); err == nil {
		t.Error("mca entrant built without a referee")
	}
}
