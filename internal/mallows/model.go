// Package mallows implements the Mallows distance-based ranking model
// M(π₀, θ) of §III-E under the Kendall tau distance: the probability of a
// permutation π is exp(−θ·d_KT(π, π₀))/Z_n(θ). It provides the partition
// function, exact probabilities, moments of the distance, an exact
// sampler (repeated insertion model), and exhaustive small-n
// distributions used as test oracles.
package mallows

import (
	"fmt"
	"math"

	"repro/internal/perm"
	"repro/internal/rankdist"
)

// Model is a Mallows distribution with central ranking Center and
// dispersion Theta ≥ 0. Theta = 0 is the uniform distribution over
// permutations; Theta → ∞ concentrates on Center.
type Model struct {
	Center perm.Perm
	Theta  float64
}

// New validates the center and dispersion and returns a Model.
func New(center perm.Perm, theta float64) (*Model, error) {
	if err := center.Validate(); err != nil {
		return nil, fmt.Errorf("mallows: invalid center: %w", err)
	}
	if math.IsNaN(theta) || theta < 0 {
		return nil, fmt.Errorf("mallows: dispersion θ = %v, want ≥ 0", theta)
	}
	return &Model{Center: center.Clone(), Theta: theta}, nil
}

// N returns the number of items.
func (m *Model) N() int { return len(m.Center) }

// LogZ returns ln Z_n(θ) for the Kendall tau Mallows model:
//
//	Z_n(θ) = ∏_{j=1}^{n} (1 − e^{−jθ})/(1 − e^{−θ})   for θ > 0
//	Z_n(0) = n!
//
// The product form follows from the inversion-table decomposition: the
// j-th insertion contributes an independent displacement V_j ∈ {0,…,j−1}
// with weight e^{−θv}, whose normalizer is the geometric partial sum.
func LogZ(n int, theta float64) float64 {
	var s float64
	for j := 2; j <= n; j++ {
		s += logZStep(j, theta)
	}
	return s
}

// LogProb returns ln P[π] under the model.
func (m *Model) LogProb(p perm.Perm) (float64, error) {
	d, err := rankdist.KendallTau(p, m.Center)
	if err != nil {
		return 0, err
	}
	return -m.Theta*float64(d) - LogZ(m.N(), m.Theta), nil
}

// Prob returns P[π] under the model.
func (m *Model) Prob(p perm.Perm) (float64, error) {
	lp, err := m.LogProb(p)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// ExpectedDistance returns E[d_KT(π, π₀)] for a Mallows model over n
// items with dispersion θ: the sum of the independent displacements'
// means E[V_j] (expectedDisplacement), with the θ = 0 limit n(n−1)/4,
// half the maximum.
func ExpectedDistance(n int, theta float64) float64 {
	var e float64
	for j := 2; j <= n; j++ {
		e += expectedDisplacement(j, theta)
	}
	return e
}

// VarianceDistance returns Var[d_KT(π, π₀)]: the insertion displacements
// V_j are independent, so it is the sum of their variances
// (varianceDisplacement), with the θ = 0 limit n(n−1)(2n+5)/72.
func VarianceDistance(n int, theta float64) float64 {
	var v float64
	for j := 2; j <= n; j++ {
		v += varianceDisplacement(j, theta)
	}
	return v
}

// seriesBelow is the jθ below which the per-step moments switch from
// their closed forms, which cancel as jθ → 0, to Taylor series in θ:
// the cumulant expansion ln j − κ₁θ + κ₂θ²/2 + κ₄θ⁴/24 of ln Z_j around
// the uniform displacement on {0,…,j−1} (κ₁ = (j−1)/2, κ₂ = (j²−1)/12,
// κ₃ = 0, κ₄ = −(j⁴−1)/120) and its θ-derivatives. At the switch the
// closed forms lose about 1e-10 relative at most, and the series' omitted
// terms are smaller still. The series also keep subnormal θ away from
// math.Log, which on amd64 returns about −709.1 for every subnormal.
const seriesBelow = 1e-2

// logZStep is ln Σ_{v=0}^{j−1} e^{−θv}: its series below jθ =
// seriesBelow, exact where e^{−θ} rounds to 1, and above it
// log1mexp(jθ) − log1mexp(θ), which keeps the e^{−θ} tail at large θ.
func logZStep(j int, theta float64) float64 {
	jj := float64(j)
	if jj*theta < seriesBelow {
		th2 := theta * theta
		return math.Log(jj) - (jj-1)*theta/2 + (jj*jj-1)*th2/24 - (jj*jj*jj*jj-1)*th2*th2/2880
	}
	return log1mexp(jj*theta) - log1mexp(theta)
}

// log1mexp is ln(1 − e^{−x}) for x > 0, computed as log(−expm1(−x)) up
// to ln 2 and log1p(−exp(−x)) above (Mächler 2012), accurate at both
// ends.
func log1mexp(x float64) float64 {
	if x <= math.Ln2 {
		return math.Log(-math.Expm1(-x))
	}
	return math.Log1p(-math.Exp(-x))
}

// expectedDisplacement is E[V_j] for V_j ∈ {0,…,j−1}, P(v) ∝ e^{−θv}:
//
//	E[V_j] = 1/(e^θ − 1) − j/(e^{jθ} − 1)
//	       ≈ (j−1)/2 − (j²−1)θ/12 + (j⁴−1)θ³/720   below jθ = seriesBelow
func expectedDisplacement(j int, theta float64) float64 {
	jj := float64(j)
	if jj*theta < seriesBelow {
		return (jj-1)/2 - (jj*jj-1)*theta/12 + (jj*jj*jj*jj-1)*theta*theta*theta/720
	}
	return 1/math.Expm1(theta) - jj/math.Expm1(jj*theta)
}

// varianceDisplacement is Var(V_j) for the displacement of
// expectedDisplacement:
//
//	Var(V_j) = 1/(4 sinh²(θ/2)) − j²/(4 sinh²(jθ/2))
//	         ≈ (j²−1)/12 − (j⁴−1)θ²/240   below jθ = seriesBelow
func varianceDisplacement(j int, theta float64) float64 {
	jj := float64(j)
	if jj*theta < seriesBelow {
		return (jj*jj-1)/12 - (jj*jj*jj*jj-1)*theta*theta/240
	}
	s, sj := math.Sinh(theta/2), math.Sinh(jj*theta/2)
	return 1/(4*s*s) - jj*jj/(4*sj*sj)
}

// MaxDistance returns the largest Kendall tau distance on n items.
func MaxDistance(n int) int64 { return rankdist.MaxKendallTau(n) }
