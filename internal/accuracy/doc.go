// Package accuracy is the BHive-scale evaluation harness behind
// cmd/facile-bench: it streams BHive-style corpora (hex_block,
// measured_cycles CSV rows) through facile's batch engine and a set of
// opponent predictors, and reduces everything into per-(arch, mode,
// predictor) accuracy statistics — the paper's Table 2 comparison ("faster
// than uiCA, more accurate than Ithemal") as a repeatable, CI-gated
// artifact.
//
// The harness is streaming end to end. The corpus Reader holds one line at
// a time and rejects malformed rows with line-numbered errors; RunCorpus
// reads fixed-size chunks, fans each through Engine.AnalyzeBatchN and the
// opponents, and folds the chunk into streaming Accumulators; reports
// render deterministically (identical inputs give identical bytes under any
// worker count). Memory is bounded by the chunk size and the statistics
// state, never by the corpus.
//
// The Accumulator answers MAPE, Kendall's tau-b, and error percentiles in
// one pass. Tau normally needs the full sequence, but the repo's value
// domain is rounded to two decimals (the paper's convention), so the exact
// tau-b is recovered from a joint frequency table over centi-cycle cells via
// a weighted variant of Knight's O(n log n) algorithm — matching
// metrics.KendallTau bit-for-bit on quantized inputs (asserted by a
// streaming-vs-batch equivalence test).
//
// Opponents are baselines.Predictor values built by the internal/baselines
// registry (the analytical and learned stand-ins, and the external llvm-mca
// binary through the shared internal/mca subprocess adapter), with
// positional block budgets (Opponent.Limit) for expensive entrants. The
// Accumulator is also the fold behind internal/eval's Table 2 and Table 3,
// so both harnesses compute MAPE and tau the same way.
//
// CheckDrift is the CI accuracy gate: cmd/benchjson embeds a report's
// Summaries into BENCH_*.json, and the gate fails the build when MAPE
// worsens or Kendall-tau drops beyond tolerance against the committed
// baseline record.
package accuracy
