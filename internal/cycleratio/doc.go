// Package cycleratio computes the maximum cycle ratio of a directed graph
// whose edges carry a weight (latency) and a transit count (loop-iteration
// distance): λ* = max over cycles C of Σ weight(e) / Σ transit(e), e ∈ C. On
// a loop's dependence graph it is the paper's loop-carried dependence
// ("Precedence") bound, §4.9, which the paper computes with Howard's policy
// iteration.
//
// Facile runs no Howard solver. Its precedence bound (internal/core) solves
// an exact summary of the block's carried values with Karp's theorem in
// integers, and this package is that summary's test oracle: it applies
// Karp's theorem to the whole dependence graph, also in integers, so
// TestPrecedenceMatchesGraph and FuzzPrecedence require the two to agree
// bit for bit. This package's tests check the oracle against every simple
// cycle of small random graphs. The ablation benchmark, the layer benchmark
// (bench/) and internal/baselines use it too.
package cycleratio
