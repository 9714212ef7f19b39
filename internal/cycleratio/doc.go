// Package cycleratio computes the maximum cycle ratio of a directed graph
// whose edges carry a weight (latency) and a transit count (loop-iteration
// distance). The maximum cycle ratio
//
//	λ* = max over cycles C of (Σ weight(e) / Σ transit(e), e ∈ C)
//
// bounds the steady-state throughput of a loop whose dependence graph is the
// input (the recurrence-constrained minimum initiation interval of modulo
// scheduling). It is the machinery behind the paper's loop-carried
// dependence ("Precedence") bound, §4.9. The primary implementation is
// Howard's policy-iteration algorithm, as used by the paper (§4.9,
// [16, 18]); a parametric binary-search/Bellman-Ford solver serves as a
// cross-checking reference and as a fallback should policy iteration fail
// to converge.
//
// All query state lives in a reusable Solver; callers construct one per
// worker (core embeds one in each analysis context) and call
// Solver.MaxRatio, which performs no transient heap allocations once warm.
// There is no package-level pooled entry point: a Solver's result aliases
// its storage, so whoever holds the Solver owns the result.
package cycleratio
