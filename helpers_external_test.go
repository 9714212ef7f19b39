package facile_test

import (
	"context"

	"facile"
)

// Call-shape helpers over the Analyze API. The behavioural tests below
// predate the batch/analysis surface and are written in terms of one-shot
// per-block calls; these helpers keep those call sites readable without
// re-deriving a Request at each one.

func predict(e *facile.Engine, code []byte, arch string, mode facile.Mode) (facile.Prediction, error) {
	ana, err := e.Analyze(context.Background(),
		facile.Request{Code: code, Arch: arch, Mode: mode})
	if err != nil {
		return facile.Prediction{}, err
	}
	return ana.Prediction, nil
}

func speedupMap(e *facile.Engine, code []byte, arch string, mode facile.Mode) (map[string]float64, error) {
	ana, err := e.Analyze(context.Background(),
		facile.Request{Code: code, Arch: arch, Mode: mode, Detail: facile.DetailSpeedups})
	if err != nil {
		return nil, err
	}
	sp := make(map[string]float64, len(ana.Speedups))
	for _, s := range ana.Speedups {
		sp[s.Component] = s.Factor
	}
	return sp, nil
}

func explainText(e *facile.Engine, code []byte, arch string, mode facile.Mode) (string, error) {
	ana, err := e.Analyze(context.Background(),
		facile.Request{Code: code, Arch: arch, Mode: mode, Detail: facile.DetailFull})
	if err != nil {
		return "", err
	}
	return ana.ReportText, nil
}

// blockReq/blockRes mirror the per-block batch shape of AnalyzeBatchN for
// tests that scatter-gather predictions.
type blockReq struct {
	Code []byte
	Arch string
	Mode facile.Mode
}

type blockRes struct {
	Prediction facile.Prediction
	Err        error
}

func predictBatchN(e *facile.Engine, reqs []blockReq, workers int) []blockRes {
	areqs := make([]facile.Request, len(reqs))
	for i, r := range reqs {
		areqs[i] = facile.Request{Code: r.Code, Arch: r.Arch, Mode: r.Mode}
	}
	out := make([]blockRes, len(reqs))
	for i, res := range e.AnalyzeBatchN(context.Background(), areqs, workers) {
		if res.Err != nil {
			out[i].Err = res.Err
			continue
		}
		out[i].Prediction = res.Analysis.Prediction
	}
	return out
}

func predictBatch(e *facile.Engine, reqs []blockReq) []blockRes {
	return predictBatchN(e, reqs, 0)
}
