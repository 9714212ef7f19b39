// Package core implements Facile, the paper's primary contribution: an
// analytical basic-block throughput model composed of independent
// per-pipeline-component predictors (paper §4).
//
// The predicted (reciprocal) throughput of a basic block is the maximum over
// a small set of per-component bounds:
//
//	TPU = max{Predec, Dec, Issue, Ports, Precedence}            (eq. 1)
//	TPL = max{FE, Issue, Ports, Precedence}                     (eq. 2)
//
// where FE is the front-end bound selected by eq. 3 (Predec/Dec under the
// JCC erratum, else LSD when available, else DSB). Because the combination
// is a simple maximum, the prediction directly identifies the bottleneck
// component(s), enables counterfactual "what if component X were infinitely
// fast" reasoning, and each component can be computed (and timed)
// independently.
//
// The package is structured around that observation: computeBounds derives
// every applicable per-component bound in ONE pass and stores them in a
// fixed-size Bounds vector; Combine then folds a bound vector into a
// throughput for ANY inclusion set purely in-memory, so counterfactual
// questions (Bounds.Speedups, IdealizationSpeedups) are O(components)
// recombinations of already-computed bounds rather than repeated full
// predictions. Bound vectors of many blocks are a plain []Bounds. All
// scratch state lives in a reusable Analysis context; the package-level
// entry points draw one from a sync.Pool, so a warm call performs no
// transient heap allocations inside this package.
//
// An Analysis also keeps the last result of three components, with the
// key it was computed for, and returns it for a block whose key matches:
// the ports bound keys on the block's descriptor generation, the
// predecoder bound on its decode generation, predec_width and the mode,
// and the precedence bound (with its critical chain) on its descriptor
// generation and load_latency. bb.BuildInto stamps those generations: a
// new decode generation for each fresh decode, and a new descriptor
// generation for each build that derives the descriptors afresh, which it
// skips for the same bytes on a configuration isa.SameDescs finds
// equivalent. These are the three reuse levels — decode, descriptors,
// component results — that let a design-space sweep compute each block's
// bounds once for all the points that leave their inputs alone. A block
// assembled by hand has no generation and is always computed afresh. A prediction's owned
// payloads (critical chain, contended instructions) are carved from a Slab
// (slab.go) by Analysis.PredictSlab, which the facile Engine calls on every
// cache miss; Analysis.Predict is PredictSlab over a fresh slab.
//
// The individual predictors map to the paper as follows: the predecoder
// bound (predec.go) to §4.3, the decoder bound (dec.go) to §4.4, the DSB
// and LSD bounds (frontend.go) to §4.5–4.6, the issue bound to §4.7, the
// execution-port bound (ports.go) to §4.8, and the loop-carried dependence
// bound (precedence.go) to §4.9. The paper solves §4.9 on the value
// dependence graph with Howard's policy iteration; this package runs no
// Howard solver. The precedence bound solves an m×m summary of the block's
// m carried values, built in one forward pass and solved exactly with
// Karp's algorithm in integers. BuildDependenceGraph still builds the graph
// for internal/cycleratio, whose exact Karp solver over the whole graph is
// the oracle the summary is tested against, bit for bit
// (TestPrecedenceMatchesGraph, FuzzPrecedence); the ablation benchmark, the
// layer benchmark (bench/) and internal/baselines analyze it too.
package core
