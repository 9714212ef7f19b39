// Package baselines provides simplified re-implementations of the
// predictors the paper compares Facile against in the §6 evaluation
// (Table 2). Each baseline mirrors the modeling scope of its namesake —
// which parts of the pipeline it models and which it ignores — rather than
// its implementation details; see docs/ARCHITECTURE.md, "Paper
// correspondence", for the correspondence argument.
//
// Predictor is the repo's one predictor interface, and the package keeps
// the one name-keyed registry of them: Names lists it, ParseNames validates
// a comma-separated list against it, and Field builds the named predictors
// for one microarchitecture, training the learned entrants once and wiring
// the external llvm-mca entrant (MCA) to an internal/mca referee. Both
// cmd/eval (through internal/eval) and cmd/facile-bench build their fields
// here.
package baselines
