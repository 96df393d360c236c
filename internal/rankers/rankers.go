// Package rankers implements the five ranking post-processors compared
// in the paper's evaluation (§V-C) behind one interface:
//
//   - Mallows       — the paper's Algorithm 1 (attribute-blind), via internal/core
//   - DetConstSort  — Geyik et al., KDD'19 (Algorithm 3)
//   - ApproxMultiValuedIPF — Wei et al., SIGMOD'22 (footrule matching)
//   - GrBinaryIPF   — Wei et al., SIGMOD'22 (exact Kendall tau, 2 groups)
//   - ILP           — the paper's §IV-B program, solved exactly by internal/fairdp
//
// plus the score-sorted baseline. The attribute-aware algorithms accept
// a noise level σ reproducing the imperfect-knowledge experiment:
// Gaussian noise injected into their representation constraints exactly
// where §V-C prescribes.
package rankers

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/perm"
	"repro/internal/quality"
)

// Instance bundles what the post-processors consume. Initial is the
// ranking being post-processed (in the experiments, a weakly fair
// ranking of candidates by descending score); Bounds is the (α,β) prefix
// bound table over exactly len(Initial) prefixes.
type Instance struct {
	Initial perm.Perm
	Scores  quality.Scores
	Groups  *fairness.Groups
	Bounds  *fairness.Bounds
	// Prob optionally refines Groups into a distribution over groups per
	// item (probabilistic protected attribute). Rankers consume the hard
	// Groups; Prob feeds the expected-fairness diagnostics downstream.
	// When set it must cover the same items and groups as Groups.
	Prob *fairness.ProbGroups
}

// Validate checks the cross-field invariants every ranker relies on.
func (in Instance) Validate() error {
	if err := in.Initial.Validate(); err != nil {
		return fmt.Errorf("rankers: invalid initial ranking: %w", err)
	}
	d := len(in.Initial)
	if len(in.Scores) != d {
		return fmt.Errorf("rankers: %d scores for %d items", len(in.Scores), d)
	}
	if err := in.Scores.Validate(); err != nil {
		return err
	}
	if in.Groups == nil || in.Bounds == nil {
		return fmt.Errorf("rankers: nil groups or bounds")
	}
	if in.Groups.NumItems() != d {
		return fmt.Errorf("rankers: groups cover %d items, want %d", in.Groups.NumItems(), d)
	}
	if in.Bounds.K() != d {
		return fmt.Errorf("rankers: bounds cover %d prefixes, want %d", in.Bounds.K(), d)
	}
	if d > 0 && in.Bounds.NumGroups() != in.Groups.NumGroups() {
		return fmt.Errorf("rankers: bounds cover %d groups, want %d", in.Bounds.NumGroups(), in.Groups.NumGroups())
	}
	if in.Prob != nil {
		if in.Prob.NumItems() != d {
			return fmt.Errorf("rankers: membership covers %d items, want %d", in.Prob.NumItems(), d)
		}
		if in.Prob.NumGroups() != in.Groups.NumGroups() {
			return fmt.Errorf("rankers: membership covers %d groups, want %d", in.Prob.NumGroups(), in.Groups.NumGroups())
		}
	}
	return nil
}

// Ranker post-processes an instance into a full ranking. rng feeds both
// randomized algorithms and the noisy-constraint variants; deterministic
// rankers with σ = 0 ignore it.
type Ranker interface {
	Name() string
	Rank(in Instance, rng *rand.Rand) (perm.Perm, error)
}

// ScoreSorted is the quality-optimal, fairness-oblivious baseline: items
// by non-increasing score.
type ScoreSorted struct{}

// Name implements Ranker.
func (ScoreSorted) Name() string { return "score-sorted" }

// Rank implements Ranker.
func (ScoreSorted) Rank(in Instance, _ *rand.Rand) (perm.Perm, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return quality.Ideal(in.Initial, in.Scores), nil
}

// Mallows is the paper's Algorithm 1: sample from M(Initial, θ), keep
// the best of m draws. It reads neither Groups nor Bounds — the
// attribute-blindness that gives the method its robustness.
type Mallows struct {
	Theta     float64
	Samples   int
	Criterion core.Criterion
}

// Name implements Ranker.
func (m Mallows) Name() string {
	return fmt.Sprintf("mallows(θ=%g,m=%d)", m.Theta, m.Samples)
}

// Rank implements Ranker.
func (m Mallows) Rank(in Instance, rng *rand.Rand) (perm.Perm, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return core.PostProcess(in.Initial, in.Scores, core.Config{Noise: core.NoiseMallows, Theta: m.Theta, Samples: m.Samples, Criterion: m.Criterion}, rng.Int63())
}
