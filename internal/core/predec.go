package core

import (
	"facile/internal/bb"
)

// PredecBound predicts the throughput bound of the predecoder (paper §4.3).
// It is the pooled one-shot wrapper around Analysis.predecBound.
func PredecBound(block *bb.Block, mode Mode) float64 {
	a := getAnalysis()
	v := a.predecBound(block, mode)
	putAnalysis(a)
	return v
}

// predecBound predicts the throughput bound of the predecoder (paper §4.3).
// It reads the instructions' offsets, lengths and prefixes, which the
// decode alone fixes, the predecode width and the mode.
//
// The predecoder fetches aligned 16-byte blocks and predecodes up to
// PredecWidth instructions per cycle. Instructions that cross a 16-byte
// boundary with their nominal opcode in the earlier block incur an extra
// cycle (they are counted in both blocks via O(b)); instructions with a
// length-changing prefix cost an extra 3 cycles each, partially hidden
// behind the predecoding of the previous block.
func (a *Analysis) predecBound(block *bb.Block, mode Mode) float64 {
	l := block.Len()
	if l == 0 {
		return 0
	}

	// Number of unrolled copies until the byte layout repeats.
	u := 1
	if mode == TPU {
		u = lcm(l, 16) / l
	}

	// Number of 16-byte blocks covered.
	n := (u*l + 15) / 16 // exact division for TPU; ceiling for loops

	L := growInts(&a.predecL, n)     // instructions whose last byte is in block b
	O := growInts(&a.predecO, n)     // opcode in b, last byte elsewhere
	LCP := growInts(&a.predecLCP, n) // LCP instructions whose opcode is in block b

	// The copies walk the instructions u times: gather the offsets they
	// need first, so a large block streams these compact arrays rather
	// than its instructions.
	opc := growInts(&a.predecOpc, len(block.Insts))
	last := growInts(&a.predecLast, len(block.Insts))
	lcpOpc := a.predecLCPOpc[:0]
	for k := range block.Insts {
		ins := &block.Insts[k]
		opc[k] = ins.Off + ins.Inst.OpcodeOff
		last[k] = ins.End() - 1
		if ins.Inst.HasLCP {
			lcpOpc = append(lcpOpc, opc[k])
		}
	}
	a.predecLCPOpc = lcpOpc

	for c := 0; c < u; c++ {
		base := c * l
		for k, o := range opc {
			opcodeB := (base + o) / 16
			lastB := (base + last[k]) / 16
			L[lastB]++
			if opcodeB != lastB {
				O[opcodeB]++
			}
		}
		for _, o := range lcpOpc {
			LCP[(base+o)/16]++
		}
	}

	w := block.Cfg.PredecWidth
	cycleNLCP := growInts(&a.predecCyc, n)
	for b := 0; b < n; b++ {
		cycleNLCP[b] = ceilDiv(L[b]+O[b], w)
	}

	total := 0
	for b := 0; b < n; b++ {
		prev := cycleNLCP[(b-1+n)%n]
		clcp := 3*LCP[b] - (prev - 1)
		if clcp < 0 {
			clcp = 0
		}
		total += cycleNLCP[b] + clcp
	}
	return float64(total) / float64(u)
}

// SimplePredecBound is the simple predecoder model for comparison: one
// 16-byte block per cycle (paper §4.3).
func SimplePredecBound(block *bb.Block, _ Mode) float64 {
	return float64(block.Len()) / 16
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
