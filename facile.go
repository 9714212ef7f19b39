// Package facile is a fast, accurate, and interpretable basic-block
// throughput predictor for Intel Core microarchitectures — a from-scratch Go
// reproduction of
//
//	Abel, Sharma, Reineke: "Facile: Fast, Accurate, and Interpretable
//	Basic-Block Throughput Prediction", IISWC 2023.
//
// Given the bytes of an x86-64 basic block and a target microarchitecture,
// Facile predicts the block's steady-state reciprocal throughput (cycles per
// iteration) as the maximum of a small set of independently computed
// per-pipeline-component bounds — predecoder, decoders, µop cache (DSB),
// loop stream detector (LSD), issue stage, execution ports, and loop-carried
// dependence chains. Because the combination is a simple maximum, every
// prediction directly identifies its bottleneck and supports counterfactual
// "what if this component were infinitely fast" queries.
//
// # Quick start
//
// The entrypoint is Engine.Analyze: one typed Request in, one typed
// Analysis out — prediction, per-component breakdown, counterfactual
// speedups, and bottleneck report from a single bound computation, with
// Request.Detail selecting how much to materialize:
//
//	engine, _ := facile.NewEngine(facile.EngineConfig{})
//	code, _ := hex.DecodeString("4801d8" + "480fafc3") // add rax,rbx; imul rax,rbx
//	ana, err := engine.Analyze(context.Background(), facile.Request{
//	    Code: code, Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull,
//	})
//	if err != nil { ... }
//	fmt.Printf("%.2f cycles/iteration, bottleneck: %s\n",
//	    ana.Prediction.CyclesPerIteration, ana.Prediction.Bottlenecks[0])
//	fmt.Printf("idealizing %s would give %.2fx\n",
//	    ana.Speedups[0].Component, ana.Speedups[0].Factor)
//
// Beyond single analyses, Engine.AnalyzeBatch fans independent requests
// across a worker pool, and ephemeral design points — hypothetical
// microarchitectures that should not consume registry capacity — are derived
// with ArchRegistry.DeriveVariant and analyzed with
// Engine.AnalyzeVariantBatchN.
// The package also exposes the reference cycle-accurate pipeline simulator
// (Engine.Simulate) used as the measurement substrate of the evaluation, and
// a disassembler (Disassemble) for the supported instruction subset.
package facile

import (
	"math"
	"math/bits"
	"strings"

	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/pipesim"
	"facile/internal/x86"
)

// Mode selects the throughput notion (paper §3.1).
type Mode int

const (
	// Unroll predicts TPU: the block is executed repeatedly by unrolling;
	// instructions flow through the predecoder and decoders.
	Unroll Mode = iota
	// Loop predicts TPL: the block ends in a branch and is executed as a
	// loop; µops stream from the LSD or DSB where possible.
	Loop
)

func (m Mode) String() string {
	if m == Loop {
		return "TPL (loop)"
	}
	return "TPU (unroll)"
}

// MarshalText renders the Mode in its wire vocabulary ("loop"/"unroll"),
// so JSON-marshaled predictions and reports carry a readable mode.
func (m Mode) MarshalText() ([]byte, error) {
	if err := checkMode(m); err != nil {
		return nil, err
	}
	if m == Loop {
		return []byte("loop"), nil
	}
	return []byte("unroll"), nil
}

// UnmarshalText parses the wire vocabulary accepted by ParseMode.
func (m *Mode) UnmarshalText(text []byte) error {
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ParseMode maps the wire vocabulary onto a Mode: "loop" or "tpl" select
// Loop, "unroll" or "tpu" select Unroll (case-insensitively).
func ParseMode(s string) (Mode, error) {
	switch {
	case strings.EqualFold(s, "loop"), strings.EqualFold(s, "tpl"):
		return Loop, nil
	case strings.EqualFold(s, "unroll"), strings.EqualFold(s, "tpu"):
		return Unroll, nil
	}
	return 0, badRequestf("facile: invalid mode %q (want \"loop\"/\"tpl\" or \"unroll\"/\"tpu\")", s)
}

// checkMode rejects Mode values outside the defined constants: the public
// entry points validate instead of silently treating unknown modes as
// Unroll. The rejection is part of the ErrBadRequest vocabulary.
func checkMode(m Mode) error {
	if m != Unroll && m != Loop {
		return badRequestf("facile: invalid mode %d (want Unroll or Loop)", int(m))
	}
	return nil
}

// Prediction is the result of a Facile throughput prediction.
type Prediction struct {
	// CyclesPerIteration is the predicted reciprocal throughput.
	CyclesPerIteration float64 `json:"cycles_per_iteration"`
	// Arch is the microarchitecture the prediction is for (e.g. "SKL").
	Arch string `json:"arch"`
	Mode Mode   `json:"mode"`
	// Bottlenecks lists the components whose bound equals the prediction,
	// in front-end-first order; the first entry is the primary bottleneck.
	Bottlenecks []string `json:"bottlenecks"`
	// FrontEndSource names the front-end component selected for TPL
	// predictions ("LSD", "DSB", "Predec", or "Dec"); empty for TPU.
	FrontEndSource string `json:"front_end_source,omitempty"`
	// CriticalChain lists the instruction indices of a maximum-latency
	// loop-carried dependence cycle (when Precedence was computed).
	CriticalChain []int `json:"critical_chain,omitempty"`
	// ContendedPorts and ContendedInstrs describe the maximally contended
	// execution-port combination (when Ports was computed).
	ContendedPorts  string `json:"contended_ports,omitempty"`
	ContendedInstrs []int  `json:"contended_instrs,omitempty"`
	// Instructions is the decoded block in Intel-like syntax.
	Instructions []string `json:"instructions"`
}

// ComponentNames returns every component name in pipeline order (front end
// first): Predec, Dec, DSB, LSD, Issue, Ports, Precedence. The order matches
// the bottleneck tie-breaking order of Prediction.Bottlenecks, the order of
// Analysis.Bounds, and the row order of report renderings.
func ComponentNames() []string {
	out := make([]string, core.NumComponents)
	for c := core.Component(0); c < core.NumComponents; c++ {
		out[c] = c.String()
	}
	return out
}

// Archs returns the microarchitecture names registered in the default
// registry: the nine built-ins newest first (Rocket Lake ... Sandy Bridge;
// paper Table 1), then any runtime-registered ones.
func Archs() []string { return DefaultRegistry().Archs() }

// ArchInfo describes a registered microarchitecture: its Table 1 identity
// plus the key front- and back-end parameters, so clients can introspect
// what they are predicting against.
type ArchInfo struct {
	Name     string
	FullName string
	CPU      string // the evaluation CPU from the paper's Table 1; empty for variants
	Released int
	// Gen is the generation the gen-gated instruction tables treat this
	// microarchitecture as ("SNB" … "RKL").
	Gen string
	// Key pipeline parameters.
	IssueWidth int
	IDQSize    int
	LSDEnabled bool
	NumPorts   int
}

// ArchInfos returns details for every microarchitecture in the default
// registry, in Archs order.
func ArchInfos() []ArchInfo { return DefaultRegistry().Infos() }

func coreMode(mode Mode) core.Mode {
	if mode == Loop {
		return core.TPL
	}
	return core.TPU
}

// publicPrediction materializes the exported Prediction from the core
// result: the bottleneck set becomes an ordered name list. The name and
// instruction lists are carved from the scratch's slab, so the only
// per-block allocations left are the rendered instruction strings
// themselves. The per-component bounds are not copied here;
// Analysis.Bounds carries them.
func publicPrediction(p *core.Prediction, block *bb.Block, arch string, mode Mode, sc *batchScratch) Prediction {
	out := Prediction{
		CyclesPerIteration: round2(p.TP),
		Arch:               arch,
		Mode:               mode,
		CriticalChain:      p.CriticalChain,
		ContendedPorts:     p.ContendedPorts,
		ContendedInstrs:    p.ContendedInstrs,
	}
	// One carve holds the bottleneck names, then the instruction texts.
	// Bottlenecks is a subset of the computed components, so its size is
	// known up front and its part of the carve fills by append without
	// growing.
	nb := bits.OnesCount8(uint8(p.Bottlenecks))
	strs := sc.strs.Carve(nb + len(block.Insts))
	if nb > 0 {
		out.Bottlenecks = strs[:0:nb]
	}
	p.EachBound(func(c core.Component, _ float64, bottleneck bool) {
		if bottleneck {
			out.Bottlenecks = append(out.Bottlenecks, c.String())
		}
	})
	if mode == Loop {
		out.FrontEndSource = p.FrontEndSource.String()
	}
	ins := strs[nb:]
	for k := range block.Insts {
		ins[k] = block.Insts[k].Inst.String()
	}
	out.Instructions = ins
	return out
}

func simulateBlock(block *bb.Block, mode Mode) float64 {
	res := pipesim.Run(block, pipesim.Options{Loop: mode == Loop})
	return round2(res.TP)
}

// Disassemble decodes the block and returns one line per instruction in
// Intel-like syntax. Empty input is an error, matching Predict.
func Disassemble(code []byte) ([]string, error) {
	if len(code) == 0 {
		return nil, errEmptyBlock
	}
	insts, err := x86.DecodeBlock(code)
	if err != nil {
		return nil, asBadRequest(err)
	}
	out := make([]string, len(insts))
	for i := range insts {
		out[i] = insts[i].String()
	}
	return out, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
