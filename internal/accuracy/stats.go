package accuracy

import (
	"math"
	"sort"
)

// The streaming statistics kernel. An Accumulator ingests (measured,
// predicted) pairs one at a time and answers MAPE, Kendall's tau-b, and
// absolute-percentage-error percentiles at the end — without ever holding
// the corpus.
//
// MAPE and the error histogram are classic one-pass statistics. Kendall-tau
// normally needs every pair, but this repo's value domain is quantized:
// measurements and predictions are both rounded to two decimal places (the
// paper's convention, applied corpus-wide by bhive.Measure and the harness).
// On a quantized domain the exact tau-b is a function of the joint frequency
// table alone, so the accumulator keeps count cells keyed by the
// (measured, predicted) centi-cycle pair. Memory scales with the number of
// distinct value pairs — bounded by the value range, independent of corpus
// size — and the final tau is computed from the cells in O(k log k) by a
// weighted variant of Knight's algorithm, matching metrics.KendallTau
// exactly on quantized inputs.

// apeBuckets is the error histogram resolution: fixed-width
// buckets of apeBucketWidth percentage points, with one overflow bucket.
// Percentiles are answered at bucket granularity (the upper edge of the
// bucket containing the rank), which is deterministic and corpus-size-free.
const (
	apeBuckets     = 800
	apeBucketWidth = 0.25 // percentage points per bucket: 800 × 0.25pp = 200%
)

// centiKey is one joint-frequency cell key: measured and predicted in
// centi-cycles.
type centiKey struct{ m, p int32 }

// Accumulator is the per-(arch, mode, predictor) streaming state. The zero
// value is ready to use.
type Accumulator struct {
	n         int64   // pairs with measured > 0 (the MAPE/tau population)
	zeroMeas  int64   // pairs skipped because measured == 0
	nonFinite int64   // pairs skipped for a NaN or infinite value
	sumAPE    float64 // Σ |m-p|/m over the population
	cells     map[centiKey]int64
	hist      [apeBuckets + 1]int64
}

// centi quantizes a cycles value to the corpus-wide two-decimal grid.
func centi(v float64) int32 {
	q := math.Round(v * 100)
	switch {
	case q > math.MaxInt32:
		return math.MaxInt32
	case q < math.MinInt32:
		return math.MinInt32
	}
	return int32(q)
}

// Add ingests one (measured, predicted) pair. Pairs with a zero (or
// negative) measurement carry no relative information, and pairs with a
// NaN or infinite value no error at all; each kind is counted separately
// and contributes to neither MAPE nor tau (mirroring metrics.MAPE's
// guard).
func (a *Accumulator) Add(measured, predicted float64) {
	switch {
	case measured <= 0:
		a.zeroMeas++
		return
	case math.IsNaN(measured) || math.IsInf(measured, 0) || math.IsNaN(predicted) || math.IsInf(predicted, 0):
		a.nonFinite++
		return
	}
	a.n++
	ape := math.Abs(measured-predicted) / measured
	a.sumAPE += ape
	b := int(ape * 100 / apeBucketWidth)
	if b >= apeBuckets {
		b = apeBuckets
	}
	a.hist[b]++
	if a.cells == nil {
		a.cells = make(map[centiKey]int64)
	}
	a.cells[centiKey{centi(measured), centi(predicted)}]++
}

// Blocks returns the number of pairs in the MAPE/tau population.
func (a *Accumulator) Blocks() int64 { return a.n }

// ZeroMeasured returns the number of pairs skipped for a zero measurement.
func (a *Accumulator) ZeroMeasured() int64 { return a.zeroMeas }

// NonFinite returns the number of pairs skipped for a NaN or infinite
// measured or predicted value.
func (a *Accumulator) NonFinite() int64 { return a.nonFinite }

// MAPE returns the mean absolute percentage error as a fraction (0.17 is
// 17%).
func (a *Accumulator) MAPE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sumAPE / float64(a.n)
}

// PercentileAPE returns the p-th percentile (0..100, nearest-rank) of the
// absolute percentage error, in percentage points, at histogram-bucket
// granularity: the upper edge of the bucket holding the rank. The overflow
// bucket answers math.Inf(1).
func (a *Accumulator) PercentileAPE(p float64) float64 {
	if a.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(a.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b <= apeBuckets; b++ {
		seen += a.hist[b]
		if seen >= rank {
			if b == apeBuckets {
				return math.Inf(1)
			}
			return float64(b+1) * apeBucketWidth
		}
	}
	return math.Inf(1)
}

// KendallTau returns Kendall's tau-b over the quantized pairs, with full tie
// handling. It matches metrics.KendallTau exactly when the inputs were
// already on the two-decimal grid.
func (a *Accumulator) KendallTau() float64 {
	if a.n < 2 {
		return 1
	}
	// Flatten the joint table into cells sorted by (m, then p) — the
	// weighted analog of Knight's index sort.
	cells := make([]weightedCell, 0, len(a.cells))
	for k, c := range a.cells {
		cells = append(cells, weightedCell{k.m, k.p, c})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].m != cells[j].m {
			return cells[i].m < cells[j].m
		}
		return cells[i].p < cells[j].p
	})

	n := a.n
	n0 := n * (n - 1) / 2

	// Tie corrections: n1 over measured-tied groups, n2 over predicted-tied
	// groups, n3 over jointly tied pairs (within-cell).
	var n1, n2, n3 int64
	for i := 0; i < len(cells); {
		j := i
		var cnt int64
		for j < len(cells) && cells[j].m == cells[i].m {
			cnt += cells[j].w
			j++
		}
		n1 += cnt * (cnt - 1) / 2
		i = j
	}
	pCounts := make(map[int32]int64, len(cells))
	for _, c := range cells {
		pCounts[c.p] += c.w
		n3 += c.w * (c.w - 1) / 2
	}
	for _, cnt := range pCounts {
		n2 += cnt * (cnt - 1) / 2
	}

	// Discordant pairs: weighted inversions of the predicted sequence in
	// measured order. Within a measured-tied run the cells are p-ascending,
	// so ties in m never count — exactly Knight's construction.
	seq := make([]weightedVal, len(cells))
	for i, c := range cells {
		seq[i] = weightedVal{c.p, c.w}
	}
	swaps := mergeCountWeighted(seq)

	num := float64(n0-n1-n2+n3) - 2*float64(swaps)
	den := math.Sqrt(float64(n0-n1)) * math.Sqrt(float64(n0-n2))
	if den == 0 {
		return 0
	}
	return num / den
}

type weightedCell struct {
	m, p int32
	w    int64
}

type weightedVal struct {
	v int32
	w int64
}

// mergeCountWeighted counts weighted inversions (pairs i < j with
// vs[i].v > vs[j].v, each counted w_i × w_j times) while merge-sorting vs in
// place. Equal values are not inversions.
func mergeCountWeighted(vs []weightedVal) int64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	buf := make([]weightedVal, n)
	var sortRange func(lo, hi int) int64
	sortRange = func(lo, hi int) int64 {
		if hi-lo < 2 {
			return 0
		}
		mid := (lo + hi) / 2
		sw := sortRange(lo, mid) + sortRange(mid, hi)
		// rem is the total weight of left-half elements not yet merged:
		// every one of them is strictly greater than a right element taken
		// before them.
		var rem int64
		for i := lo; i < mid; i++ {
			rem += vs[i].w
		}
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if vs[j].v < vs[i].v {
				sw += rem * vs[j].w
				buf[k] = vs[j]
				j++
			} else {
				rem -= vs[i].w
				buf[k] = vs[i]
				i++
			}
			k++
		}
		for i < mid {
			buf[k] = vs[i]
			i++
			k++
		}
		for j < hi {
			buf[k] = vs[j]
			j++
			k++
		}
		copy(vs[lo:hi], buf[lo:hi])
		return sw
	}
	return sortRange(0, n)
}
