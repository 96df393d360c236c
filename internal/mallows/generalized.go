package mallows

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/perm"
)

// GeneralizedModel is the generalized Mallows model (Fligner–Verducci):
// one dispersion parameter per insertion step, so the noise level can
// differ along the ranking. Thetas[j−1] governs the j-th item of the
// center (j = 1…n); position-dependent dispersion is the "tuning
// parameters within the noise distribution" direction of the paper's
// future work (§VI) — e.g. large θ near the top to keep the head of the
// center in order and small θ in the tail where reshuffling is cheap.
//
// The probability of a permutation factorizes over the insertion
// displacements V_j ∈ {0,…,j−1}:
//
//	P[π] ∝ ∏_j e^{−θ_j·V_j(π)}
//
// and reduces to the standard model when all θ_j are equal.
type GeneralizedModel struct {
	Center perm.Perm
	Thetas []float64
}

// NewGeneralized validates the center and the per-step dispersions
// (one per item, all ≥ 0).
func NewGeneralized(center perm.Perm, thetas []float64) (*GeneralizedModel, error) {
	if err := center.Validate(); err != nil {
		return nil, fmt.Errorf("mallows: invalid center: %w", err)
	}
	if len(thetas) != len(center) {
		return nil, fmt.Errorf("mallows: %d dispersions for %d items", len(thetas), len(center))
	}
	for j, t := range thetas {
		if math.IsNaN(t) || t < 0 {
			return nil, fmt.Errorf("mallows: dispersion θ_%d = %v, want ≥ 0", j+1, t)
		}
	}
	return &GeneralizedModel{
		Center: center.Clone(),
		Thetas: append([]float64(nil), thetas...),
	}, nil
}

// N returns the number of items.
func (m *GeneralizedModel) N() int { return len(m.Center) }

// Sample draws one permutation via the repeated insertion model with
// per-step dispersions.
func (m *GeneralizedModel) Sample(rng *rand.Rand) perm.Perm {
	n := m.N()
	out := make(perm.Perm, 0, n)
	for j := 1; j <= n; j++ {
		v := sampleDisplacement(j, m.Thetas[j-1], rng)
		idx := j - 1 - v
		out = append(out, 0)
		copy(out[idx+1:], out[idx:])
		out[idx] = m.Center[j-1]
	}
	return out
}

// LogZ returns the log partition function: the product of the per-step
// truncated-geometric normalizers.
func (m *GeneralizedModel) LogZ() float64 {
	var s float64
	for j := 1; j <= m.N(); j++ {
		s += logZStep(j, m.Thetas[j-1])
	}
	return s
}

// LogProb returns ln P[π]: −Σ_j θ_j·V_j(π) − ln Z. The displacement
// vector V(π) is recovered from the Lehmer-style insertion code of π
// relative to the center.
func (m *GeneralizedModel) LogProb(p perm.Perm) (float64, error) {
	v, err := m.Displacements(p)
	if err != nil {
		return 0, err
	}
	var e float64
	for j, d := range v {
		e += m.Thetas[j] * float64(d)
	}
	return -e - m.LogZ(), nil
}

// Displacements recovers the insertion displacements V_1…V_n of p
// relative to the center: V_j is the number of items inserted before
// step j (i.e., ranked above item j in the center) that end up below it
// in p. Σ V_j is the Kendall tau distance to the center.
func (m *GeneralizedModel) Displacements(p perm.Perm) ([]int, error) {
	if len(p) != m.N() {
		return nil, fmt.Errorf("mallows: permutation of size %d, model has %d", len(p), m.N())
	}
	rel, err := p.RelativeTo(m.Center)
	if err != nil {
		return nil, err
	}
	// rel lists center-ranks in p-order; V_j counts earlier center items
	// below item j in p. In the inverse view: for center rank r (0-based,
	// item j = r+1), V_j = #{r' < r : pos_p(r') > pos_p(r)} — the Lehmer
	// code of rel's inverse.
	inv := rel.Positions()
	code := inv.LehmerCode()
	// code[t] counts larger earlier entries of inv; inv[r] = position in
	// p of the center's r-th item, so larger-earlier means "an earlier
	// center item sits below": exactly V_{r+1}.
	return code, nil
}

// ExpectedDistance returns E[d_KT(π, center)] = Σ_j E[V_j] with
// per-step dispersions.
func (m *GeneralizedModel) ExpectedDistance() float64 {
	var e float64
	for j := 2; j <= m.N(); j++ {
		e += expectedDisplacement(j, m.Thetas[j-1])
	}
	return e
}
