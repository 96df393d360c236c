package fairrank

import (
	"math/rand"

	"repro/internal/rankers"
)

// internalStrategy adapts an internal/rankers implementation to the
// public Strategy interface; the built-in factories use it, and it keeps
// their Rank-time behavior byte-for-byte what the pre-registry dispatch
// produced.
type internalStrategy struct {
	r rankers.Ranker
}

func (s internalStrategy) Rank(in *Instance, rng *rand.Rand) ([]int, error) {
	p, err := s.r.Rank(in.in, rng)
	return []int(p), err
}

func init() {
	samplingTunables := []string{"central", "theta", "noise", "tolerance", "weak_k", "seed"}
	bestOfTunables := []string{"central", "criterion", "theta", "noise", "samples", "tolerance", "weak_k", "seed"}
	plTunables := []string{"central", "criterion", "theta", "samples", "tolerance", "weak_k", "seed"}
	constraintTunables := []string{"tolerance", "sigma", "seed"}

	// The Guarantees floors below are calibrated against the
	// "conformance" scenario corpus (internal/scenario) under the
	// protocol documented on the Guarantees type: θ = 1, default
	// samples and tolerance, the fair central for the sampling family,
	// fairness audited over the top-min(10, n) prefix. Each floor sits
	// below the worst mean observed across that corpus — adversarial
	// all-minority-at-bottom and heavily tied pools included — with
	// enough margin that sampling noise cannot trip it, and close
	// enough that a behavioral regression does.
	MustRegister(AlgorithmInfo{
		Name:           string(AlgorithmMallowsBest),
		Description:    "paper Algorithm 1: best of m noise draws around the central ranking (Mallows by default; see the noise catalog)",
		AttributeBlind: true,
		Sampling:       true,
		BestOf:         true,
		Tunables:       bestOfTunables,
		// The NDCG selection criterion trades fairness for quality, so
		// the fairness floor sits below the single-draw mallows entry.
		Guarantees: Guarantees{MinMeanPPfair: 40, MinMeanNDCG: 0.94},
	}, nil)
	MustRegister(AlgorithmInfo{
		Name:           string(AlgorithmMallows),
		Description:    "paper Algorithm 1 with m = 1 (a single noise draw around the central ranking)",
		AttributeBlind: true,
		Sampling:       true,
		Tunables:       samplingTunables,
		Guarantees:     Guarantees{MinMeanPPfair: 75, MinMeanNDCG: 0.90},
	}, nil)
	MustRegister(AlgorithmInfo{
		Name:           string(AlgorithmPlackettLuce),
		Description:    "best of m Plackett–Luce draws around the central ranking (the paper's §VI beyond-Mallows direction; θ is the concentration strength)",
		AttributeBlind: true,
		Sampling:       true,
		BestOf:         true,
		Noise:          NoisePlackettLuce,
		Tunables:       plTunables,
		Guarantees:     Guarantees{MinMeanPPfair: 55, MinMeanNDCG: 0.94},
	}, nil)
	MustRegister(AlgorithmInfo{
		Name:          string(AlgorithmILP),
		Description:   "DCG-optimal (α,β)-fair ranking, paper §IV-B, solved exactly",
		Deterministic: true,
		SupportsSigma: true,
		Tunables:      constraintTunables,
		Guarantees:    Guarantees{MinMeanPPfair: 99, MinMeanNDCG: 0.90},
	}, func(cfg Config) (Strategy, error) {
		return internalStrategy{rankers.ILPRanker{Sigma: cfg.Sigma}}, nil
	})
	MustRegister(AlgorithmInfo{
		Name:          string(AlgorithmDetConstSort),
		Description:   "Geyik et al., KDD'19 DetConstSort",
		Deterministic: true,
		SupportsSigma: true,
		Tunables:      constraintTunables,
		// DetConstSort enforces only the lower representation bounds,
		// so the two-sided audit can fail most prefixes on skewed
		// adversarial pools; the floor reflects that known limitation.
		Guarantees: Guarantees{MinMeanPPfair: 15, MinMeanNDCG: 0.95},
	}, func(cfg Config) (Strategy, error) {
		return internalStrategy{rankers.DetConstSort{Sigma: cfg.Sigma}}, nil
	})
	MustRegister(AlgorithmInfo{
		Name:          string(AlgorithmIPF),
		Description:   "Wei et al., SIGMOD'22 ApproxMultiValuedIPF (footrule-optimal)",
		Deterministic: true,
		SupportsSigma: true,
		Tunables:      constraintTunables,
		Guarantees:    Guarantees{MinMeanPPfair: 99, MinMeanNDCG: 0.90},
	}, func(cfg Config) (Strategy, error) {
		return internalStrategy{rankers.ApproxMultiValuedIPF{Sigma: cfg.Sigma}}, nil
	})
	MustRegister(AlgorithmInfo{
		Name:          string(AlgorithmGrBinary),
		Description:   "Wei et al., SIGMOD'22 GrBinaryIPF (Kendall-tau-optimal, exactly two groups)",
		Deterministic: true,
		MinGroups:     2,
		MaxGroups:     2,
		Tunables:      []string{"tolerance", "seed"},
		Guarantees:    Guarantees{MinMeanPPfair: 99, MinMeanNDCG: 0.95},
	}, func(cfg Config) (Strategy, error) {
		return internalStrategy{rankers.GrBinaryIPF{}}, nil
	})
	MustRegister(AlgorithmInfo{
		Name:        string(AlgorithmExPostFair),
		Description: "Gorantla et al., IJCAI'23-style ex-post group-fair sampler: every draw satisfies the (α,β) prefix bounds, randomness lives in the group sequence",
		// Randomized (each Rank draw is a fresh group sequence) but not
		// Sampling: it never goes through a noise mechanism around a
		// central ranking — fairness comes from the constraint table.
		Tunables: []string{"tolerance", "seed"},
		// Fairness is structural: a feasible table is satisfied on every
		// prefix of every draw, so mean PPfair is 100 minus nothing.
		// Quality is what it costs — the group sequence ignores scores
		// beyond within-group order; the worst conformance-corpus mean
		// NDCG observed is ≈0.87 (g4-skewed-tied-adversarial).
		Guarantees: Guarantees{MinMeanPPfair: 99, MinMeanNDCG: 0.85},
	}, func(cfg Config) (Strategy, error) {
		return internalStrategy{rankers.ExPostFair{}}, nil
	})
	MustRegister(AlgorithmInfo{
		Name:           string(AlgorithmScoreSorted),
		Description:    "sort by score (no-fairness baseline)",
		AttributeBlind: true,
		Deterministic:  true,
		// The baseline promises quality only: it is the score-ideal
		// order, so its NDCG is 1 by construction.
		Guarantees: Guarantees{MinMeanNDCG: 0.999},
	}, func(cfg Config) (Strategy, error) {
		return internalStrategy{rankers.ScoreSorted{}}, nil
	})
}
