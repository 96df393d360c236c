package core

import (
	"fmt"
	"math"

	"repro/internal/mallows"
)

// maxTheta caps the dispersion CalibrateTheta searches; at θ = 50 the
// probability of even a single discordant pair is below e^{−50} ≈ 2e−22.
const maxTheta = 50.0

// CalibrateTheta returns the dispersion θ at which the Mallows model
// over n items has expected Kendall tau distance targetKT from its
// center. This is the "systematic methodology for incorporating noise"
// the paper's §VI calls for: pick the amount of reshuffling first, and
// derive θ from it. E[d] is strictly decreasing in θ, so bisection is
// exact up to floating point.
//
// targetKT must lie in (0, n(n−1)/4]; the upper end is the uniform
// distribution's mean, attained at θ = 0.
func CalibrateTheta(n int, targetKT float64) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("core: calibrate needs n ≥ 2, have %d", n)
	}
	max := mallows.ExpectedDistance(n, 0)
	if math.IsNaN(targetKT) || targetKT <= 0 || targetKT > max {
		return 0, fmt.Errorf("core: target distance %v outside (0, %v]", targetKT, max)
	}
	if targetKT == max {
		return 0, nil
	}
	lo, hi := 0.0, maxTheta
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if mallows.ExpectedDistance(n, mid) > targetKT {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
