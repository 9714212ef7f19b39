// Package sweep explores microarchitecture design spaces: given a base
// arch, a parameter grid, and a workload of basic blocks, it enumerates
// every grid point as an ephemeral variant (derived, never registered — a
// 2,000-point grid consumes no registry capacity and never touches the
// engine's prediction cache), analyzes the workload on each variant through
// the engine's chunked batch kernel, block-major so a block is decoded,
// rendered and solved once for every point that leaves those inputs alone,
// and folds the results into a ranked frontier.
//
// Each frontier row answers the architect's question twice over: the
// geomean speedup of the workload versus the base says *how much* a design
// point helps, and the per-component bottleneck-shift deltas — sourced from
// the deterministic Analysis.ComponentBound breakdown — say *why* ("the
// issue bound stops binding on 73% of blocks"). The report is
// byte-deterministic: per-variant folds read only their own results in
// block order and ranking breaks ties by name, so the same grid and
// workload produce identical bytes at any worker count.
//
// The subsystem is surfaced three ways: cmd/facile-sweep (grids from JSON,
// text or -json reports), POST /v1/sweep in internal/server (behind
// admission control, cancellable with 499 on abandonment), and the
// examples/uarch-evolution walkthrough.
package sweep
