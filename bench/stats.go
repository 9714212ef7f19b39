package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile is only as trustworthy as the samples that define it, so
// p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank. It
// refuses when fewer than minBeyond samples lie beyond the rank. xs is
// sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%g outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("percentile: p%g of %d samples leaves %d beyond it, need %d",
			100*q, n, n-rank, minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths); xs is sorted in place. It is NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// midmean returns the mean of the middle half of xs — the values between
// its quartiles, a quarter of them dropped from each end — which is steadier
// than the median and, unlike the mean, unmoved by a few outliers. With
// fewer than four values it is their mean; with none it is NaN.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// quartiles returns the first quartile, the median and the third quartile
// of xs with the same interpolation as Python's statistics.quantiles(xs,
// n=4) (the "exclusive" method), so spreads read the same as the ones the
// benchmark's acceptance is judged by. It needs two samples; with one, all
// three equal it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
