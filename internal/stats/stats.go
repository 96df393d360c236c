// Package stats provides the descriptive statistics and bootstrap
// confidence intervals used throughout the experimental evaluation
// (every figure in the paper reports bootstrap CIs with n = 1000
// resamples).
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean; 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance; 0 for fewer than two
// observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the middle order statistic (mean of the two middle
// values for even n); 0 for an empty sample.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics; 0 for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
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

// Max returns the largest value; −Inf for an empty sample.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64
	Lo    float64
	Hi    float64
}

// Statistic reduces a sample to a single number (e.g. Mean or Median).
type Statistic func([]float64) float64

// Bootstrap draws resamples resamples-with-replacement from xs, applies
// stat to each, and returns the percentile confidence interval at the
// given confidence level (e.g. 0.95) around stat(xs).
func Bootstrap(xs []float64, stat Statistic, resamples int, confidence float64, rng *rand.Rand) (Interval, error) {
	if len(xs) == 0 {
		return Interval{}, fmt.Errorf("stats: bootstrap of empty sample")
	}
	if resamples < 1 {
		return Interval{}, fmt.Errorf("stats: resamples = %d, want ≥ 1", resamples)
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence = %v, want (0,1)", confidence)
	}
	estimates := make([]float64, resamples)
	resample := make([]float64, len(xs))
	for b := 0; b < resamples; b++ {
		for i := range resample {
			resample[i] = xs[rng.Intn(len(xs))]
		}
		estimates[b] = stat(resample)
	}
	sort.Float64s(estimates)
	tail := (1 - confidence) / 2
	return Interval{
		Point: stat(xs),
		Lo:    quantileSorted(estimates, tail),
		Hi:    quantileSorted(estimates, 1-tail),
	}, nil
}

// BootstrapMean is Bootstrap with the mean, the paper's default CI.
func BootstrapMean(xs []float64, resamples int, confidence float64, rng *rand.Rand) (Interval, error) {
	return Bootstrap(xs, Mean, resamples, confidence, rng)
}

// BootstrapMedian is Bootstrap with the median (used by Figs. 5 and 6).
func BootstrapMedian(xs []float64, resamples int, confidence float64, rng *rand.Rand) (Interval, error) {
	return Bootstrap(xs, Median, resamples, confidence, rng)
}
