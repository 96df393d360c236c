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
	if theta == 0 {
		var s float64
		for j := 2; j <= n; j++ {
			s += math.Log(float64(j))
		}
		return s
	}
	var s float64
	for j := 1; j <= n; j++ {
		// ln( (1 − e^{−jθ}) / (1 − e^{−θ}) )
		s += math.Log1p(-math.Exp(-float64(j)*theta)) - math.Log1p(-math.Exp(-theta))
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
// items with dispersion θ:
//
//	E[D] = Σ_{j=1}^{n} E[V_j],   E[V_j] = q/(1−q) − j·q^j/(1−q^j),  q = e^{−θ}
//
// with the θ = 0 limit E[D] = n(n−1)/4 (half the maximum).
func ExpectedDistance(n int, theta float64) float64 {
	if n < 2 {
		return 0
	}
	if theta == 0 {
		return float64(n) * float64(n-1) / 4
	}
	q := math.Exp(-theta)
	common := q / (1 - q)
	var e float64
	for j := 1; j <= n; j++ {
		qj := math.Exp(-theta * float64(j))
		e += common - float64(j)*qj/(1-qj)
	}
	return e
}

// VarianceDistance returns Var[d_KT(π, π₀)]; the insertion displacements
// V_j are independent, so the variance is the sum of
//
//	Var(V_j) = q/(1−q)² − j²·q^j/(1−q^j)²
//
// with the θ = 0 limit Σ (j²−1)/12 = n(n−1)(2n+5)/72.
func VarianceDistance(n int, theta float64) float64 {
	if n < 2 {
		return 0
	}
	if theta == 0 {
		nn := float64(n)
		return nn * (nn - 1) * (2*nn + 5) / 72
	}
	q := math.Exp(-theta)
	common := q / ((1 - q) * (1 - q))
	var v float64
	for j := 1; j <= n; j++ {
		qj := math.Exp(-theta * float64(j))
		v += common - float64(j)*float64(j)*qj/((1-qj)*(1-qj))
	}
	return v
}

// MaxDistance returns the largest Kendall tau distance on n items.
func MaxDistance(n int) int64 { return rankdist.MaxKendallTau(n) }
