package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of all
// samples at or below it. It never interpolates, so every reported
// percentile is a time some pass actually took. xs is not modified.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50) }

// quartiles returns Q1, Q2 and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads compare prints are the ones anyone can
// recompute from the committed result files.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a metric's bound has to clear.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
