// Package stats provides the small set of summary statistics the
// evaluation code reports: means, extrema and percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 values.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P95, P99  float64
	StdDev         float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	// Welford's one-pass algorithm. The textbook sumSq/n − mean² form
	// cancels catastrophically when the mean dwarfs the spread (a sample
	// like 1e9 + {0,1,2} reports zero or negative variance in float64);
	// Welford subtracts the running mean before squaring, so the variance
	// is computed from the deviations themselves and stays accurate at any
	// magnitude.
	mean, m2 := 0.0, 0.0
	for i, x := range xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = mean
	if variance := m2 / float64(len(xs)); variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (0 < p <= 1) of an ASCENDING-sorted
// sample using the nearest-rank method. An empty sample has no quantiles and
// returns NaN — report layers render it as missing data instead of crashing
// (an all-faulted restart set produces exactly this).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g sd=%.3g",
		s.N, s.Mean, s.Min, s.P50, s.P95, s.Max, s.StdDev)
}
