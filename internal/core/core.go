package core

import (
	"fmt"
	"sync"

	"facile/internal/bb"
)

// Component identifies one of Facile's per-pipeline-component predictors.
type Component uint8

const (
	Predec Component = iota
	Dec
	DSB
	LSD
	Issue
	Ports
	Precedence
	NumComponents
)

var componentNames = [NumComponents]string{
	"Predec", "Dec", "DSB", "LSD", "Issue", "Ports", "Precedence",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// ComponentSet is a set of components.
type ComponentSet uint8

// AllComponents contains every component.
const AllComponents ComponentSet = 1<<NumComponents - 1

// Set returns a ComponentSet containing the given components.
func Set(cs ...Component) ComponentSet {
	var s ComponentSet
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Has reports whether c is in the set.
func (s ComponentSet) Has(c Component) bool { return s&(1<<c) != 0 }

// Without returns the set with the given components removed.
func (s ComponentSet) Without(cs ...Component) ComponentSet {
	return s &^ Set(cs...)
}

// Mode selects the throughput notion (paper §3.1).
type Mode uint8

const (
	// TPU: the block is unrolled; µops flow through predecoder and decoders.
	TPU Mode = iota
	// TPL: the block is executed as a loop; µops are streamed from the LSD
	// or DSB (unless the JCC erratum forces the legacy decode path).
	TPL
)

func (m Mode) String() string {
	if m == TPU {
		return "TPU"
	}
	return "TPL"
}

// Options configures prediction variants (used by the paper's Table 3
// ablations).
type Options struct {
	// Include restricts which components participate in the maximum
	// (zero value means AllComponents).
	Include ComponentSet
	// SimplePredec replaces the predecoder model with the simple
	// one-16-byte-block-per-cycle model (paper §4.3).
	SimplePredec bool
	// SimpleDec replaces Algorithm 1 with the simple decoder model
	// (paper §4.4).
	SimpleDec bool
}

func (o Options) include() ComponentSet {
	if o.Include == 0 {
		return AllComponents
	}
	return o.Include
}

// Bounds is the fixed-size per-component bound vector of one prediction:
// the individual bounds of eq. 1/2 plus the front-end selection context of
// eq. 3, captured when the bounds were computed. A Bounds value is
// self-contained: Combine and Speedups recombine it under arbitrary
// inclusion sets without ever re-reading the block or re-running a
// predictor.
type Bounds struct {
	// V holds the bound of each component in Present; entries of absent
	// components are zero and meaningless.
	V [NumComponents]float64
	// Present records which components were computed.
	Present ComponentSet
	// JCCErratum records whether the block triggers the JCC-erratum
	// mitigation (eq. 3 then selects max(Predec, Dec) as the front end).
	JCCErratum bool
	// LSDEligible records whether the loop stream detector can serve the
	// block (enabled on the microarchitecture and the block fits the IDQ).
	LSDEligible bool
}

func (b *Bounds) set(c Component, v float64) {
	b.V[c] = v
	b.Present |= 1 << c
}

// Get returns the bound of c and whether it was computed.
func (b *Bounds) Get(c Component) (float64, bool) {
	return b.V[c], b.Present.Has(c)
}

// Has reports whether the bound of c was computed.
func (b *Bounds) Has(c Component) bool { return b.Present.Has(c) }

// Combined is the result of folding a bound vector under an inclusion set.
type Combined struct {
	// TP is the throughput of eq. 1/2 over the included components.
	TP float64
	// FrontEnd is the front-end bound FE of eq. 3 (TPL only), and
	// FrontEndSource names the component that produced it.
	FrontEnd       float64
	FrontEndSource Component
	// Considered is the set of components that participated in the maximum:
	// for TPL that is the selected front end plus the back-end components,
	// so bounds that were computed but not selected (e.g. the DSB when the
	// LSD serves the loop) are excluded.
	Considered ComponentSet
}

var (
	tpuComponents = [...]Component{Predec, Dec, Issue, Ports, Precedence}
	tplBackEnd    = [...]Component{Issue, Ports, Precedence}
)

// Computed returns the components computeBounds computes in mode, given
// eq. 3's selection context: eq. 1's components for TPU; for TPL the legacy
// decode path (Predec, Dec) under the JCC erratum, otherwise the DSB and,
// when the LSD may serve the loop, the LSD too, so that recombinations
// excluding the LSD can fall back to the DSB; and the back end.
func Computed(mode Mode, jccErratum, lsdEligible bool) ComponentSet {
	const (
		legacy = 1<<Predec | 1<<Dec | 1<<Issue | 1<<Ports | 1<<Precedence
		dsb    = 1<<DSB | 1<<Issue | 1<<Ports | 1<<Precedence
	)
	switch {
	case mode == TPU || jccErratum:
		return legacy
	case lsdEligible:
		return dsb | 1<<LSD
	}
	return dsb
}

// LSDEligible reports whether the loop stream detector can serve the block:
// it is enabled on block.Cfg and the block fits the IDQ.
func LSDEligible(block *bb.Block) bool {
	return block.Cfg.LSDEnabled && block.FusedUops() <= block.Cfg.IDQSize
}

// Reads declares, for each component, the uarch.Config fields (by spec
// key) its bound reads besides the block's decode and descriptors (the
// predecoder reads the mode too): two configurations that agree on them,
// for blocks built alike, give the component the same bound. A component
// whose computation depends on the selection context also lists the fields
// that decide it (the LSD bound is computed only where the LSD may serve
// the loop). A design-space sweep computes each bound once per distinct
// tuple of these fields; TestReadsComplete holds every bound to them.
var Reads = [NumComponents][]string{
	Predec:     {"predec_width"},
	Dec:        {"num_decoders", "fusible_on_last_decoder"},
	DSB:        {"dsb_width"},
	LSD:        {"issue_width", "lsd_enabled", "idq_size", "lsd_unroll_target"},
	Issue:      {"issue_width"},
	Ports:      nil,
	Precedence: {"load_latency"},
}

// SelectionReads lists the uarch.Config fields eq. 3's front-end selection
// reads besides the block's JCC-erratum flag: those LSDEligible reads.
var SelectionReads = []string{"lsd_enabled", "idq_size"}

// Combine folds the bound vector into a throughput prediction for the given
// inclusion set, re-evaluating eq. 3's front-end selection in-memory. An
// include value of zero means AllComponents. Combine never allocates; it is
// the recombination primitive behind Predict, Speedups, and the evaluation
// harness's ablations.
func (b *Bounds) Combine(mode Mode, include ComponentSet) Combined {
	if include == 0 {
		include = AllComponents
	}
	avail := include & b.Present
	var r Combined
	switch mode {
	case TPU:
		for _, c := range tpuComponents {
			if avail.Has(c) {
				r.Considered |= 1 << c
				if b.V[c] > r.TP {
					r.TP = b.V[c]
				}
			}
		}
	case TPL:
		r.FrontEndSource = DSB
		switch {
		case b.JCCErratum:
			if avail.Has(Predec) {
				r.FrontEnd = b.V[Predec]
				r.FrontEndSource = Predec
				r.Considered |= 1 << Predec
			}
			if avail.Has(Dec) {
				r.Considered |= 1 << Dec
				if b.V[Dec] > r.FrontEnd {
					r.FrontEnd = b.V[Dec]
					r.FrontEndSource = Dec
				}
			}
		case b.LSDEligible && avail.Has(LSD):
			r.FrontEnd = b.V[LSD]
			r.FrontEndSource = LSD
			r.Considered |= 1 << LSD
		case avail.Has(DSB):
			r.FrontEnd = b.V[DSB]
			r.FrontEndSource = DSB
			r.Considered |= 1 << DSB
		}
		r.TP = r.FrontEnd
		for _, c := range tplBackEnd {
			if avail.Has(c) {
				r.Considered |= 1 << c
				if b.V[c] > r.TP {
					r.TP = b.V[c]
				}
			}
		}
	}
	return r
}

// Bottlenecks returns the components of comb, a recombination of b, whose
// bound equals its prediction (to within rounding noise).
func (b *Bounds) Bottlenecks(comb Combined) ComponentSet {
	const eps = 1e-9
	var s ComponentSet
	if comb.TP > 0 {
		for _, c := range bottleneckOrder {
			if comb.Considered.Has(c) && b.V[c] >= comb.TP-eps {
				s |= 1 << c
			}
		}
	}
	return s
}

// Speedups answers the counterfactual question of the paper's Table 4 for
// every component at once: by what factor would the block speed up if the
// component were infinitely fast? It is pure recombination — one Combine per
// component — of an already-computed bound vector; components that do not
// participate in the mode report a speedup of 1.
func (b *Bounds) Speedups(mode Mode) [NumComponents]float64 {
	base := b.Combine(mode, AllComponents).TP
	var out [NumComponents]float64
	for c := Component(0); c < NumComponents; c++ {
		without := b.Combine(mode, AllComponents.Without(c)).TP
		if without <= 0 {
			out[c] = 1
			continue
		}
		out[c] = base / without
	}
	return out
}

// Prediction is the result of a Facile prediction.
type Prediction struct {
	// TP is the predicted reciprocal throughput in cycles per iteration.
	TP   float64
	Mode Mode
	// Bounds is the per-component bound vector the prediction was combined
	// from (components excluded by Options or not applicable to the mode
	// are absent).
	Bounds Bounds
	// FrontEnd is the front-end bound FE of eq. 3 (TPL only), and
	// FrontEndSource names the component that produced it.
	FrontEnd       float64
	FrontEndSource Component
	// Bottlenecks is the set of considered components whose bound equals TP.
	Bottlenecks ComponentSet
	// CriticalChain lists instruction indices on a maximum-ratio dependence
	// cycle when Precedence was computed (interpretability, §4.9).
	CriticalChain []int
	// ContendedInstrs lists instruction indices whose µops use the
	// maximally contended port combination when Ports was computed
	// (interpretability, §4.8).
	ContendedInstrs []int
	// ContendedPorts is that port combination.
	ContendedPorts string
}

// bottleneckOrder is the tie-breaking order used when a single bottleneck is
// reported: components closer to the front end win (paper §6.4).
var bottleneckOrder = [...]Component{Predec, Dec, DSB, LSD, Issue, Ports, Precedence}

// PrimaryBottleneck returns the single bottleneck component using the
// front-end-first tie-breaking order of the paper's §6.4.
func (p *Prediction) PrimaryBottleneck() Component {
	for _, c := range bottleneckOrder {
		if p.Bottlenecks.Has(c) {
			return c
		}
	}
	return Precedence
}

// EachBound calls fn for every computed component bound in pipeline
// (front-end-first) order, together with whether that component is a
// bottleneck of the prediction. It is the ordered typed walk of the bound
// vector: consumers that need a deterministic breakdown iterate it directly
// instead of re-deriving an order from a map view.
func (p *Prediction) EachBound(fn func(c Component, cycles float64, bottleneck bool)) {
	for _, c := range bottleneckOrder {
		if v, ok := p.Bounds.Get(c); ok {
			fn(c, v, p.Bottlenecks.Has(c))
		}
	}
}

// analysisPool backs the package-level entry points (Predict, ComputeBounds,
// IdealizationSpeedups, and the exported per-component bound functions) so
// that one-shot calls reuse scratch state instead of reallocating it.
var analysisPool = sync.Pool{New: func() any { return NewAnalysis() }}

func getAnalysis() *Analysis  { return analysisPool.Get().(*Analysis) }
func putAnalysis(a *Analysis) { analysisPool.Put(a) }

// Predict computes the Facile throughput prediction for a prepared block.
func Predict(block *bb.Block, mode Mode, opts Options) Prediction {
	a := getAnalysis()
	p := a.Predict(block, mode, opts)
	putAnalysis(a)
	return p
}

// ComputeBounds computes the per-component bound vector for a prepared block
// in one pass. The result recombines under arbitrary inclusion sets via
// Bounds.Combine without re-running any predictor.
func ComputeBounds(block *bb.Block, mode Mode, opts Options) Bounds {
	a := getAnalysis()
	b, _ := a.computeBounds(block, mode, opts)
	putAnalysis(a)
	return b
}

// IdealizationSpeedup answers the counterfactual question of the paper's
// Table 4: by what factor would the block speed up if component c were
// infinitely fast? (Speedups are computed per block and aggregated by the
// evaluation harness.)
func IdealizationSpeedup(block *bb.Block, mode Mode, c Component) float64 {
	return IdealizationSpeedups(block, mode)[c]
}

// IdealizationSpeedups computes the idealization speedup for every
// component. It performs exactly ONE full component-bound computation for
// the block; each per-component answer is a pure recombination of that
// bound vector (eq. 3's front-end selection is re-evaluated in-memory per
// exclusion set).
func IdealizationSpeedups(block *bb.Block, mode Mode) [NumComponents]float64 {
	a := getAnalysis()
	b, _ := a.computeBounds(block, mode, Options{})
	putAnalysis(a)
	return b.Speedups(mode)
}

// SpeedupComponents returns the component set for which idealization
// speedups are meaningful in the given mode (the paper's Table 4 columns).
func SpeedupComponents(mode Mode) []Component {
	comps := []Component{Predec, Dec, Issue, Ports, Precedence}
	if mode == TPL {
		comps = append(comps, DSB, LSD)
	}
	return comps
}
