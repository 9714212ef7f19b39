// Package eval implements the paper's experimental evaluation (§6): it
// builds benchmark suites, runs the baselines registry's predictors, folds
// their accuracy through accuracy.Accumulator, and renders every table and
// figure of the evaluation section as text — the accuracy comparison
// (Table 2), the component ablations (Table 3), the counterfactual
// idealizations (Table 4), and the error-distribution figures. cmd/eval is
// its command-line front end.
package eval
