// Package core implements the paper's primary contribution (§IV-A,
// Algorithm 1): post-processing a ranking by admixing Mallows noise.
//
// Given a central ranking π₀ — in the fair-ranking setting, a weakly
// k-fair ranking of the candidates ordered by descending score — the
// algorithm draws m samples from the Mallows distribution M(π₀, θ) and
// keeps the best sample under a selection criterion. Because sampling
// never consults group membership, the randomization is oblivious to the
// protected attribute: the fairness it buys is robust to attributes that
// are unknown at ranking time, which is the paper's central claim.
package core

import (
	"math/rand"

	"repro/internal/perm"
	"repro/internal/quality"
	"repro/internal/rankdist"
)

// Criterion scores a sampled ranking; PostProcess keeps the sample with
// the highest criterion value. Criteria must be deterministic.
type Criterion interface {
	// Score returns the selection score of candidate ranking p.
	Score(p perm.Perm) (float64, error)
	// Name identifies the criterion in reports.
	Name() string
}

// NDCGCriterion selects the sample with the highest NDCG under the given
// scores — the efficiency-first choice used when quality scores are
// known (§III-F).
type NDCGCriterion struct {
	Scores quality.Scores
}

// Score implements Criterion.
func (c NDCGCriterion) Score(p perm.Perm) (float64, error) {
	return quality.NDCG(p, c.Scores, len(p))
}

// Name implements Criterion.
func (c NDCGCriterion) Name() string { return "ndcg" }

// KTCriterion selects the sample closest to the reference ranking in
// Kendall tau distance — the efficiency measure used when the scores
// behind the input ranking are unknown (§III-F).
type KTCriterion struct {
	Reference perm.Perm
}

// Score implements Criterion.
func (c KTCriterion) Score(p perm.Perm) (float64, error) {
	d, err := rankdist.KendallTau(p, c.Reference)
	if err != nil {
		return 0, err
	}
	return -float64(d), nil
}

// Name implements Criterion.
func (c KTCriterion) Name() string { return "kt" }

// Config parameterizes Algorithm 1.
type Config struct {
	// Theta is the Mallows dispersion; larger values stay closer to the
	// central ranking (θ → ∞ reproduces it, θ = 0 is uniform shuffling).
	Theta float64
	// Samples is m, the number of Mallows draws. 1 yields pure
	// randomization; larger m trades computation for criterion value.
	Samples int
	// Criterion picks the best sample. nil keeps the first sample
	// regardless of quality (equivalent to m = 1 semantics for any m).
	Criterion Criterion
}

// PostProcess runs Algorithm 1 around the given central ranking: draw
// cfg.Samples rankings from M(central, θ) and return the one maximizing
// cfg.Criterion (the first sample if the criterion is nil).
func PostProcess(central perm.Perm, cfg Config, rng *rand.Rand) (perm.Perm, error) {
	return PostProcessWith(central, MallowsNoise{Theta: cfg.Theta}, cfg.Samples, cfg.Criterion, rng)
}
