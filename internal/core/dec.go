package core

import (
	"facile/internal/bb"
)

// DecBound predicts the throughput bound of the decoding unit. It is the
// pooled one-shot wrapper around Analysis.decBound.
func DecBound(block *bb.Block) float64 {
	a := getAnalysis()
	v := a.decBound(block)
	putAnalysis(a)
	return v
}

// decBound predicts the throughput bound of the decoding unit by simulating
// the allocation of instructions to decoders until the first instruction of
// the benchmark is allocated to the same decoder for the second time
// (paper §4.4, Algorithm 1).
//
// The decoding unit has one complex decoder (index 0), which handles
// multi-µop instructions, and NumDecoders-1 simple decoders. The number of
// cycles needed to decode one iteration equals the number of times the
// complex decoder starts a new decode group in that iteration.
func (a *Analysis) decBound(block *bb.Block) float64 {
	cfg := block.Cfg
	units := block.DecodeUnits()
	if len(units) == 0 {
		return 0
	}
	nDec := cfg.NumDecoders

	curDec := nDec - 1
	nAvailSimple := 0
	// nComplex[r] = decode cycles spent on iteration r.
	nComplex := append(a.decComplex[:0], 0) // index 0 unused; iterations are 1-based
	firstInstrOnDec := growInts(&a.decFirst, nDec)
	for i := range firstInstrOnDec {
		firstInstrOnDec[i] = -1
	}

	const maxIterations = 1 << 14 // safety bound; steady state arrives much sooner
	for iteration := 1; iteration <= maxIterations; iteration++ {
		nComplex = append(nComplex, 0)
		for idx, ins := range units {
			if ins.Desc.Complex {
				curDec = 0
				nAvailSimple = ins.Desc.AvailSimple(nDec)
			} else {
				wrapForFusible := curDec+1 == nDec-1 &&
					ins.Desc.MacroFusible && !cfg.FusibleOnLastDecoder
				if nAvailSimple == 0 || wrapForFusible {
					curDec = 0
					nAvailSimple = nDec - 1
				} else {
					curDec++
					nAvailSimple--
				}
			}
			if ins.Inst.IsBranch() || ins.FusedWithNext {
				// A branch ends the decode group.
				nAvailSimple = 0
			}
			if curDec == 0 {
				nComplex[iteration]++
			}
			if idx == 0 {
				f := firstInstrOnDec[curDec]
				if f >= 0 {
					u := iteration - f
					cycles := 0
					for r := f; r < iteration; r++ {
						cycles += nComplex[r]
					}
					a.decComplex = nComplex
					return float64(cycles) / float64(u)
				}
				firstInstrOnDec[curDec] = iteration
			}
		}
	}
	a.decComplex = nComplex
	// Unreachable for well-formed inputs: the (decoder, availability) state
	// space is finite. Fall back to the simple model.
	return SimpleDecBound(block)
}

// SimpleDecBound is the simple decoder model for comparison (paper §4.4):
// max(n/d, c) for n instructions (macro-fused pairs counted once), d
// decoders, and c complex-decoder-requiring instructions.
func SimpleDecBound(block *bb.Block) float64 {
	units := block.DecodeUnits()
	n := len(units)
	c := 0
	for _, u := range units {
		if u.Desc.Complex {
			c++
		}
	}
	d := block.Cfg.NumDecoders
	bound := float64(n) / float64(d)
	if float64(c) > bound {
		bound = float64(c)
	}
	return bound
}
