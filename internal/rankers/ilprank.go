package rankers

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fairdp"
	"repro/internal/fairness"
	"repro/internal/perm"
)

// ILPRanker computes the DCG-optimal (α,β)-fair ranking of §IV-B with
// the exact dynamic program of internal/fairdp, which provably solves
// the paper's integer program in polynomial time for a constant number
// of groups (fairdp's tests check it against exhaustive enumeration of
// the feasible rankings).
//
// Sigma > 0 reproduces §V-C: each side of every group-prefix constraint
// is relaxed by an independent |N(0,σ)| sample,
//
//	⌊α_p·ℓ⌋ − X ≤ Σ … ≤ ⌈β_p·ℓ⌉ + Y,   X, Y ~ |N(0,σ)|,
//
// which (as the paper notes) keeps noisy instances feasible rather than
// tightening them into infeasibility.
type ILPRanker struct {
	Sigma float64
}

// Name implements Ranker.
func (r ILPRanker) Name() string {
	if r.Sigma > 0 {
		return fmt.Sprintf("ilp(σ=%g)", r.Sigma)
	}
	return "ilp"
}

// Rank implements Ranker.
func (r ILPRanker) Rank(in Instance, rng *rand.Rand) (perm.Perm, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if r.Sigma < 0 {
		return nil, fmt.Errorf("rankers: ilp σ = %v, want ≥ 0", r.Sigma)
	}
	if r.Sigma > 0 && rng == nil {
		return nil, fmt.Errorf("rankers: ilp with σ > 0 needs an RNG")
	}
	b := in.Bounds
	if r.Sigma > 0 {
		b = relaxBounds(in.Bounds, r.Sigma, rng)
	}
	p, _, err := fairdp.Solve(in.Scores, in.Groups, b, nil)
	if err != nil {
		return nil, fmt.Errorf("rankers: ilp(dp): %w", err)
	}
	return p, nil
}

// relaxBounds widens every (group, prefix) constraint by |N(0,σ)| on
// each side. Integer effective bounds: the lower bound becomes
// ⌈lower − X⌉ and the upper ⌊upper + Y⌋, clamped back into [0, ℓ].
func relaxBounds(b *fairness.Bounds, sigma float64, rng *rand.Rand) *fairness.Bounds {
	nb := b.Clone()
	for i := range nb.Lower {
		for g := range nb.Lower[i] {
			x := math.Abs(rng.NormFloat64() * sigma)
			y := math.Abs(rng.NormFloat64() * sigma)
			nb.Lower[i][g] = int(math.Ceil(float64(nb.Lower[i][g]) - x))
			nb.Upper[i][g] = int(math.Floor(float64(nb.Upper[i][g]) + y))
		}
	}
	nb.Clamp()
	return nb
}
