package facile

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"facile/internal/core"
)

// ErrBadRequest classifies every Analyze-boundary rejection of client input:
// an empty or oversized block, an invalid Mode or Detail, an unknown (or
// not-served) microarchitecture, or a block the decoder rejects. Match it
// with errors.Is to distinguish "the request was wrong" from infrastructure
// failures — servers map it to HTTP 400. The error text is unchanged from
// the pre-Analyze entry points, so existing message-matching callers keep
// working.
var ErrBadRequest = errors.New("facile: bad request")

// requestError is the uniform bad-request vocabulary: it carries the exact
// legacy message text while matching both ErrBadRequest and (when present)
// the underlying error via errors.Is/As.
type requestError struct {
	msg string
	err error // optional underlying cause
}

func (e *requestError) Error() string { return e.msg }

func (e *requestError) Unwrap() []error {
	if e.err != nil {
		return []error{ErrBadRequest, e.err}
	}
	return []error{ErrBadRequest}
}

func badRequestf(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// asBadRequest wraps err into the ErrBadRequest vocabulary, preserving its
// text and identity. A nil or already-classified error passes through.
func asBadRequest(err error) error {
	if err == nil || errors.Is(err, ErrBadRequest) {
		return err
	}
	return &requestError{msg: err.Error(), err: err}
}

// errEmptyBlock keeps the historical message of the empty-input rejection.
var errEmptyBlock = &requestError{msg: "facile: empty basic block"}

// Detail selects how much of an Analysis Engine.Analyze materializes, so
// cheap callers pay nothing beyond the prediction itself. Each level
// includes the previous ones; the zero value is the cheapest.
type Detail uint8

const (
	// DetailPrediction computes the prediction and the per-component bound
	// breakdown only.
	DetailPrediction Detail = iota
	// DetailSpeedups additionally derives the counterfactual speedups
	// (a pure recombination of the already-computed bound vector).
	DetailSpeedups
	// DetailFull additionally builds the structured bottleneck Report.
	DetailFull

	numDetails
)

var detailNames = [numDetails]string{"prediction", "speedups", "full"}

func (d Detail) String() string {
	if d < numDetails {
		return detailNames[d]
	}
	return fmt.Sprintf("Detail(%d)", uint8(d))
}

// MarshalText renders the Detail in its wire vocabulary
// ("prediction", "speedups", "full").
func (d Detail) MarshalText() ([]byte, error) {
	if d >= numDetails {
		return nil, fmt.Errorf("facile: invalid detail %d", uint8(d))
	}
	return []byte(detailNames[d]), nil
}

// UnmarshalText parses the wire vocabulary accepted by ParseDetail.
func (d *Detail) UnmarshalText(text []byte) error {
	v, err := ParseDetail(string(text))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// ParseDetail maps the wire vocabulary onto a Detail: "prediction",
// "speedups", or "full".
func ParseDetail(s string) (Detail, error) {
	for d, name := range detailNames {
		if s == name {
			return Detail(d), nil
		}
	}
	return 0, badRequestf("facile: invalid detail %q (want \"prediction\", \"speedups\", or \"full\")", s)
}

// checkDetail rejects Detail values outside the defined constants, in the
// same boundary-validation spirit as checkMode.
func checkDetail(d Detail) error {
	if d >= numDetails {
		return badRequestf("facile: invalid detail %d (want DetailPrediction, DetailSpeedups, or DetailFull)", uint8(d))
	}
	return nil
}

// Request is the typed input of Engine.Analyze: one basic block, the target
// microarchitecture, the throughput notion, and how much of the analysis to
// materialize. The zero Detail selects the cheapest level.
type Request struct {
	// Code is the raw machine code of the basic block.
	Code []byte
	// Arch is the target microarchitecture name (case-insensitive; see
	// Archs).
	Arch string
	// Mode selects the throughput notion (Unroll/TPU or Loop/TPL).
	Mode Mode
	// Detail selects prediction-only, +speedups, or +report.
	Detail Detail
}

// ComponentBound is one component's entry in the deterministic breakdown of
// an Analysis: the bound it contributes to eq. 1/2 and whether it is a
// bottleneck (its bound equals the prediction). Breakdowns are ordered
// front-end first (the order of ComponentNames).
type ComponentBound struct {
	Component  string  `json:"component"`
	Cycles     float64 `json:"cycles"`
	Bottleneck bool    `json:"bottleneck"`
}

// Speedup is one component's counterfactual idealization speedup (paper
// Table 4): the factor by which the prediction would improve if the
// component were infinitely fast. Speedup lists are sorted by Factor,
// descending (ties break front-end first), so the first entry is always the
// most profitable component to idealize.
type Speedup struct {
	Component string  `json:"component"`
	Factor    float64 `json:"factor"`
}

// Analysis is the result of Engine.Analyze: one bound computation exposed as
// prediction, interpretation, and counterfactuals together. Analyses
// returned by an Engine are memoized and shared between callers — treat
// every field as read-only.
type Analysis struct {
	// Prediction is the throughput prediction itself.
	Prediction Prediction `json:"prediction"`
	// Bounds is the per-component breakdown in pipeline (front-end-first)
	// order: every computed component's bound, the bottlenecks flagged.
	Bounds []ComponentBound `json:"bounds"`
	// Speedups holds the counterfactual speedups sorted descending; nil
	// unless the request asked for DetailSpeedups or DetailFull.
	Speedups []Speedup `json:"speedups,omitempty"`
	// Report is the structured bottleneck report; nil unless the request
	// asked for DetailFull. Render it with Report.Text or marshal it as
	// JSON.
	Report *Report `json:"report,omitempty"`
}

// AnalysisResult is the outcome of one Request of an AnalyzeBatch call.
type AnalysisResult struct {
	Analysis *Analysis
	Err      error
}

// componentBounds materializes the ordered typed breakdown of a core
// prediction, carved from the scratch's slab instead of a per-block
// allocation. Across a batch chunk the breakdowns land contiguously — one
// flat block×component slab.
func componentBounds(p *core.Prediction, sc *batchScratch) []ComponentBound {
	out := sc.bounds.Carve(bits.OnesCount8(uint8(p.Bounds.Present)))
	i := 0
	p.EachBound(func(c core.Component, cycles float64, bottleneck bool) {
		out[i] = ComponentBound{Component: c.String(), Cycles: cycles, Bottleneck: bottleneck}
		i++
	})
	return out
}

// speedupList materializes the sorted speedup list from an already-computed
// bound vector: one Bounds.Speedups recombination, then a stable descending
// sort (ties keep pipeline order).
func speedupList(b *core.Bounds, m core.Mode) []Speedup {
	sp := b.Speedups(m)
	set := core.Set(core.SpeedupComponents(m)...)
	out := make([]Speedup, 0, core.NumComponents)
	// Components iterate in pipeline order, so the stable sort's tie-break
	// is front-end first.
	for c := core.Component(0); c < core.NumComponents; c++ {
		if set.Has(c) {
			out = append(out, Speedup{Component: c.String(), Factor: sp[c]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Factor > out[j].Factor })
	return out
}

// defaultEngine backs DefaultEngine: one lazily constructed process-wide
// Engine over the default registry.
var defaultEngine = sync.OnceValue(func() *Engine {
	e, err := NewEngine(EngineConfig{})
	if err != nil {
		// The zero EngineConfig cannot fail validation.
		panic("facile: default engine: " + err.Error())
	}
	return e
})

// DefaultEngine returns the process-wide shared Engine: all
// microarchitectures of the default registry, default cache size, one
// worker per CPU. Programs that want their own cache bounds, registry, or
// microarchitecture subset should construct an Engine with NewEngine
// instead.
func DefaultEngine() *Engine { return defaultEngine() }
