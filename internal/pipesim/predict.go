package pipesim

import (
	"fmt"
	"math"

	"facile/internal/bb"
	"facile/internal/uarch"
)

// Predict is the stable comparison entrypoint used by differential harnesses
// (internal/difffuzz): decode and prepare code for cfg, simulate it under the
// requested throughput notion, and return the steady-state cycles per
// iteration. It is a pure convenience over bb.Build + Run with the default
// measurement window; callers that already hold a built block call
// PredictBlock instead.
func Predict(cfg *uarch.Config, code []byte, loop bool) (float64, error) {
	block, err := bb.Build(cfg, code)
	if err != nil {
		return 0, err
	}
	return PredictBlock(block, loop)
}

// PredictBlock simulates an already-built block and returns the steady-state
// cycles per iteration. A pipeline deadlock (a modeling bug inside the
// simulator) is reported as an error rather than the sentinel +Inf that Run
// returns, so differential harnesses can separate "the simulator broke" from
// "the models disagree".
func PredictBlock(block *bb.Block, loop bool) (float64, error) {
	res := Run(block, Options{Loop: loop})
	if math.IsInf(res.TP, 0) || math.IsNaN(res.TP) {
		return 0, fmt.Errorf("pipesim: simulation did not reach steady state (%s, %d instructions)",
			block.Cfg.Name, len(block.Insts))
	}
	return res.TP, nil
}
