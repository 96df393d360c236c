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
//
// The package holds the one implementation of the algorithm: the noise
// registry Axes (Mallows, as in the paper, plus the generalized Mallows
// and Plackett–Luce mechanisms of its §VI direction), each axis with a
// description, a reference sampler and an amortized kernel; the Engine
// state the kernels draw from; the prefix-scoped selection criteria;
// and the one best-of loop, whose draw i comes from a stream seeded with
// MixSeed(seed, i), run inline or fanned out over workers. The serving
// engine (package fairrank) draws through an Engine per Ranker, and the
// paper experiments (internal/rankers) through PostProcess.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/perm"
	"repro/internal/quality"
)

// Criterion selects how Algorithm 1 picks among its draws.
type Criterion int

const (
	// SelectFirst keeps the first draw (pure randomization); it draws
	// once whatever the sample count.
	SelectFirst Criterion = iota
	// SelectNDCG keeps the draw with the highest NDCG — the
	// efficiency-first choice used when quality scores are known
	// (§III-F).
	SelectNDCG
	// SelectKT keeps the draw closest to the central ranking in Kendall
	// tau distance — the efficiency measure used when the scores behind
	// the input ranking are unknown (§III-F).
	SelectKT
)

// Config parameterizes Algorithm 1.
type Config struct {
	// Noise is the built-in noise axis the draws come from.
	Noise Noise
	// Theta is the dispersion; larger values stay closer to the central
	// ranking (θ → ∞ reproduces it, θ = 0 is uniform shuffling).
	Theta float64
	// Samples is m, the number of draws. 1 yields pure randomization;
	// larger m trades computation for criterion value.
	Samples int
	// Criterion picks the kept draw.
	Criterion Criterion
}

// PostProcess runs Algorithm 1 around the given central ranking: draw
// cfg.Samples rankings from cfg.Noise and return the one maximizing
// cfg.Criterion, whose NDCG is computed against scores (which the other
// criteria ignore). It runs the engine's best-of loop inline on fresh
// Engine state, so for equal seeds it returns exactly what the serving
// engine returns for the same central ranking, θ, samples and
// criterion. It rejects a NaN, negative or infinite θ, samples < 1, an
// invalid central ranking, and a noise axis or criterion it does not
// know.
func PostProcess(central perm.Perm, scores quality.Scores, cfg Config, seed int64) (perm.Perm, error) {
	if math.IsNaN(cfg.Theta) || cfg.Theta < 0 || math.IsInf(cfg.Theta, 1) {
		return nil, fmt.Errorf("core: dispersion θ = %v, want finite and ≥ 0", cfg.Theta)
	}
	if cfg.Samples < 1 {
		return nil, fmt.Errorf("core: samples = %d, want ≥ 1", cfg.Samples)
	}
	if err := central.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid central ranking: %w", err)
	}
	var e Engine
	p, err := e.Plan(cfg.Noise, central, cfg.Theta, len(central))
	if err != nil {
		return nil, err
	}
	defer p.Release()
	out, _, err := e.Best(context.Background(), p, scores, cfg.Criterion, cfg.Samples, 1, seed)
	return out, err
}
