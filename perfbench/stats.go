package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-quantile of xs by the nearest-rank method: the
// smallest sample with at least q of the samples at or below it. xs is
// sorted in place; an empty slice gives 0.
func nearestRank(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	r := int(math.Ceil(q * float64(len(xs))))
	if r < 1 {
		r = 1
	}
	if r > len(xs) {
		r = len(xs)
	}
	return xs[r-1]
}

// tailPercentile is the highest of the candidate percentiles that still
// has at least ten samples strictly beyond its nearest rank, so a tail
// figure never rests on a handful of requests. It returns 0 when even the
// lowest candidate has fewer than ten samples beyond it.
func tailPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		r := int(math.Ceil(q * float64(n)))
		if n-r >= 10 && q > best {
			best = q
		}
	}
	return best
}

// median of xs (the mean of the middle two for an even count); xs is
// sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive" method,
// which extrapolates at the ends of small samples), since that is how the
// benchmark's spreads are judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
