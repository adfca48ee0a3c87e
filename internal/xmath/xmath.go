// Package xmath provides the small set of summary statistics used by
// the benchmark harness: means (arithmetic, harmonic), extremes,
// dispersion, and quantiles. Graph 500 reports the harmonic mean of
// TEPS across search roots, which is why it appears here explicitly.
package xmath

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicMean returns the harmonic mean of xs, or 0 for an empty
// slice. A zero element makes the result 0 (the limit as any element
// approaches zero). This is the Graph 500 aggregate for TEPS.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x == 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the sample standard deviation of xs (n-1 divisor),
// or 0 when len(xs) < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// Median returns the median of xs, or 0 for an empty slice. It does
// not modify xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, or 0 for an empty slice.
// It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
