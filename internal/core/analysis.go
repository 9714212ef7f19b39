package core

import (
	"facile/internal/bb"
	"facile/internal/uarch"
)

// Analysis is a reusable scratch context for the per-component predictors.
// Every transient buffer the predictors need — predecoder block counters,
// decoder simulation state, port-combination worklists, the carried-value
// summary of the precedence bound — lives here and is grown once, then
// reused across calls, so a warm Analysis computes a full bound vector with
// no transient heap allocations in this package. An Analysis is NOT safe
// for concurrent use; pool instances (the package-level entry points and
// the facile Engine both do) and hand one to at most one goroutine at a
// time.
type Analysis struct {
	// Predecoder (predec.go): per-16-byte-block instruction counters, and
	// the instructions' opcode and last-byte offsets (predecLCPOpc: the
	// opcode offsets of the LCP instructions).
	predecL, predecO, predecLCP, predecCyc []int
	predecOpc, predecLast, predecLCPOpc    []int

	// Decoder (dec.go): per-iteration complex-decode counts and the
	// first-instruction-decoder table of Algorithm 1.
	decComplex []int
	decFirst   []int

	// Ports (ports.go): distinct port combinations with per-combination µop
	// counts, their pairwise unions, and the contended-instruction list.
	portsPCs    []uarch.PortMask
	portsCounts []int
	portsUnions []uarch.PortMask
	portsInstrs []int

	// Precedence (precedence.go): the last solve's input and results, the
	// carried-value summary and the chain recovery's scratch.
	prec precScratch
}

// NewAnalysis returns an empty scratch context. Buffers grow on first use
// and are retained for subsequent calls.
func NewAnalysis() *Analysis { return new(Analysis) }

// analysisDetail carries the interpretability payload of one bound
// computation. Its slices point into Analysis scratch and are only valid
// until the next use of the Analysis; Predict copies them into the returned
// Prediction.
type analysisDetail struct {
	chain  []int // instruction indices on the critical dependence cycle
	instrs []int // instructions restricted to the contended ports
	ports  string
}

// testHookComponent, when non-nil, is invoked for every per-component
// predictor run. Tests use it to assert that Predict and the speedup path
// perform exactly one full bound computation per block.
var testHookComponent func(Component)

// computeBounds derives every applicable component bound in one pass. Which
// components run follows eq. 1 for TPU and eq. 3's selection context for
// TPL: under the JCC erratum the legacy-decode bounds (Predec, Dec) are
// computed; otherwise the LSD bound (when eligible) AND the DSB bound are
// both computed so that recombinations excluding the LSD can fall back to
// the DSB without re-running anything.
func (a *Analysis) computeBounds(block *bb.Block, mode Mode, opts Options) (Bounds, analysisDetail) {
	inc := opts.include()
	var b Bounds
	var det analysisDetail

	compute := func(c Component) {
		if testHookComponent != nil {
			testHookComponent(c)
		}
		var v float64
		switch c {
		case Predec:
			if opts.SimplePredec {
				v = SimplePredecBound(block, mode)
			} else {
				v = a.predecBound(block, mode)
			}
		case Dec:
			if opts.SimpleDec {
				v = SimpleDecBound(block)
			} else {
				v = a.decBound(block)
			}
		case DSB:
			v = DSBBound(block)
		case LSD:
			v = LSDBound(block)
		case Issue:
			v = IssueBound(block)
		case Ports:
			v, det.instrs, det.ports = a.portsBoundDetail(block)
		case Precedence:
			v, det.chain = a.precedenceBound(block)
		}
		b.set(c, v)
	}

	switch mode {
	case TPU:
		for _, c := range tpuComponents {
			if inc.Has(c) {
				compute(c)
			}
		}
	case TPL:
		b.JCCErratum = block.JCCErratumAffected()
		b.LSDEligible = block.Cfg.LSDEnabled && block.FusedUops() <= block.Cfg.IDQSize
		if b.JCCErratum {
			if inc.Has(Predec) {
				compute(Predec)
			}
			if inc.Has(Dec) {
				compute(Dec)
			}
		} else {
			if b.LSDEligible && inc.Has(LSD) {
				compute(LSD)
			}
			if inc.Has(DSB) {
				compute(DSB)
			}
		}
		for _, c := range tplBackEnd {
			if inc.Has(c) {
				compute(c)
			}
		}
	}
	return b, det
}

// Predict computes the Facile throughput prediction for a prepared block
// using this Analysis's scratch state: one bound-vector pass, one
// recombination. It is PredictSlab over a fresh slab, so the prediction's
// payload slices share one owned allocation.
func (a *Analysis) Predict(block *bb.Block, mode Mode, opts Options) Prediction {
	var ar Slab[int]
	return a.PredictSlab(block, mode, opts, &ar)
}

// PredictSlab is Predict with the prediction's owned payload slices
// (critical chain, contended instructions) carved from ar in one Carve call
// instead of individually heap-allocated — the engine's miss path, where ar
// amortizes those copies across a whole chunk of blocks.
func (a *Analysis) PredictSlab(block *bb.Block, mode Mode, opts Options, ar *Slab[int]) Prediction {
	b, det := a.computeBounds(block, mode, opts)
	comb := b.Combine(mode, opts.include())
	p := Prediction{
		TP:             comb.TP,
		Mode:           mode,
		Bounds:         b,
		FrontEnd:       comb.FrontEnd,
		FrontEndSource: comb.FrontEndSource,
	}
	const eps = 1e-9
	if comb.TP > 0 {
		for _, c := range bottleneckOrder {
			if comb.Considered.Has(c) && b.V[c] >= comb.TP-eps {
				p.Bottlenecks |= 1 << c
			}
		}
	}
	// The interpretability payloads point into scratch; copy them into a
	// carve of ar so the Prediction outlives the Analysis's next use.
	var chain, instrs []int
	if b.Has(Precedence) {
		chain = det.chain
	}
	if b.Has(Ports) {
		instrs = det.instrs
		p.ContendedPorts = det.ports
	}
	buf := ar.Carve(len(chain) + len(instrs))
	p.CriticalChain = carveCopy(&buf, chain)
	p.ContendedInstrs = carveCopy(&buf, instrs)
	return p
}

// ComputeBounds is the Analysis-bound variant of the package-level
// ComputeBounds.
func (a *Analysis) ComputeBounds(block *bb.Block, mode Mode, opts Options) Bounds {
	b, _ := a.computeBounds(block, mode, opts)
	return b
}

// carveCopy copies s into the front of *buf and advances *buf past it;
// empty input yields nil, matching copyInts.
func carveCopy(buf *[]int, s []int) []int {
	if len(s) == 0 {
		return nil
	}
	out := (*buf)[:len(s):len(s)]
	copy(out, s)
	*buf = (*buf)[len(s):]
	return out
}

func copyInts(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// growInts returns *s resized to n elements and zeroed, reusing capacity.
func growInts(s *[]int, n int) []int {
	t := *s
	if cap(t) < n {
		t = make([]int, n)
		*s = t
		return t
	}
	t = t[:n]
	for i := range t {
		t[i] = 0
	}
	*s = t
	return t
}
