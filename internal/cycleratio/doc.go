// Package cycleratio computes the maximum cycle ratio of a directed graph
// whose edges carry a weight (latency) and a transit count (loop-iteration
// distance). The maximum cycle ratio
//
//	λ* = max over cycles C of (Σ weight(e) / Σ transit(e), e ∈ C)
//
// bounds the steady-state throughput of a loop whose dependence graph is the
// input (the recurrence-constrained minimum initiation interval of modulo
// scheduling). It is the paper's machinery for the loop-carried dependence
// ("Precedence") bound, §4.9. The primary implementation is Howard's
// policy-iteration algorithm, as used by the paper (§4.9, [16, 18]); a
// parametric binary-search/Bellman-Ford solver serves as a cross-checking
// reference and as a fallback should policy iteration fail to converge.
// The fallback ends on a critical cycle, so it returns that cycle and its
// exact ratio too.
//
// Facile's own precedence bound does not call this package: internal/core
// solves an exact summary of the block's loop-carried values instead. The
// solver on core.BuildDependenceGraph's graph is that summary's test
// oracle, and the ablation benchmark, the layer benchmark (bench/) and
// internal/baselines use it.
//
// All query state lives in a reusable Solver; callers construct one per
// worker and call Solver.MaxRatio, which performs no transient heap
// allocations once warm. There is no package-level pooled entry point: a
// Solver's result aliases its storage, so whoever holds the Solver owns the
// result.
package cycleratio
