// Package sweep explores microarchitecture design spaces: given a base
// arch, a parameter grid, and a workload of basic blocks, it derives every
// grid point from the base in typed form (each axis value decoded once; a
// point is never registered, so a 2,000-point grid consumes no registry
// capacity and never touches the engine's prediction cache), evaluates the
// workload on every point factored — per block, one build per distinct
// tuple of the fields a build reads and each component bound once per
// distinct tuple of the fields it reads, on the engine's batch workers —
// and folds the pairs into a ranked frontier. A pair's prediction is what
// an analysis of the block on the point's variant computes.
//
// Each frontier row answers the architect's question twice over: the
// geomean speedup of the workload versus the base says *how much* a design
// point helps, and the per-component bottleneck-shift deltas — sourced from
// the deterministic Analysis.ComponentBound breakdown — say *why* ("the
// issue bound stops binding on 73% of blocks"). The report is
// byte-deterministic: per-point folds read only their own pairs in block
// order and ranking breaks ties by name, so the same grid and
// workload produce identical bytes at any worker count.
//
// The subsystem is surfaced three ways: cmd/facile-sweep (grids from JSON,
// text or -json reports), POST /v1/sweep in internal/server (behind
// admission control, cancellable with 499 on abandonment), and the
// examples/uarch-evolution walkthrough.
package sweep
