// Package pl implements the Plackett–Luce ranking model: a ranking is
// built top-down by repeatedly choosing the next item with probability
// proportional to its positive weight among the remaining items,
//
//	P[π] = ∏_{r=0}^{n−1} w(π(r)) / Σ_{r'≥r} w(π(r')).
//
// The paper's §VI proposes exploring noise distributions beyond Mallows;
// Plackett–Luce is the canonical alternative (internal/core's
// plackett-luce noise axis draws from this model with exponentially
// decaying weights). The
// package provides Gumbel-trick samplers that work directly on
// log-weights: full-length draws (SampleLogWeights and its
// zero-allocation form SampleLogWeightsInto) and the truncated top-k
// draw SampleTopKInto.
package pl

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/perm"
)

// SampleLogWeights draws one Plackett–Luce ranking by the Gumbel-max
// trick directly from log-weights: item i gets utility logw[i] + Gumbel
// noise and the ranking sorts utilities descending. Operating in log
// space sidesteps the under/overflow of materializing w = e^{logw} —
// e.g. exponentially decaying weights over long rankings, where the
// tail weights would round to zero.
//
// Equal utilities — possible when logw holds ±Inf entries, which the
// Gumbel perturbation cannot separate — break toward the lower item
// index. The tie-break makes the comparator a strict total order, so
// the drawn ranking is a deterministic function of the consumed
// uniforms regardless of the sort algorithm (sort.Slice alone is
// unstable and would leave tied orders unspecified across Go releases).
func SampleLogWeights(logw []float64, rng *rand.Rand) perm.Perm {
	utilities := make([]float64, len(logw))
	for i, lw := range logw {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		utilities[i] = lw - math.Log(-math.Log(u))
	}
	out := perm.Identity(len(logw))
	sort.Slice(out, func(a, b int) bool {
		ua, ub := utilities[out[a]], utilities[out[b]]
		if ua != ub {
			return ua > ub
		}
		return out[a] < out[b]
	})
	return out
}
