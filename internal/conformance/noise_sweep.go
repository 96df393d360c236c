// The degradation sweep: how gracefully does each registered algorithm
// lose fairness and quality as the protected attribute it sees gets
// noisier? RunNoiseSweep passes every scenario pool through a grid of
// scenario.NoiseSpec channels and measures, per algorithm × scenario ×
// level, three fairness readings of the same rankings — audited against
// the observed (corrupted) labels, against the true labels, and in
// expectation under the Bayesian posterior the channel attaches as
// Membership — plus ranking quality (NDCG). The noiseless anchor level
// doubles as a regression guard: its ranking sequences must be
// bit-identical to an uncorrupted base sweep, or the report carries a
// CheckZeroNoiseIdentity violation.
package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	fairrank "repro"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// NoiseCurvePoint is one (noise level → measured means) sample of a
// degradation curve.
type NoiseCurvePoint struct {
	Flip    float64 `json:"flip"`
	Missing float64 `json:"missing"`
	// MeanPPfairObserved audits the rankings against the corrupted
	// labels the algorithm actually saw — the fairness the pipeline
	// believes it delivered.
	MeanPPfairObserved float64 `json:"mean_ppfair_observed"`
	// MeanPPfairTrue audits the same rankings against the uncorrupted
	// labels — the fairness actually delivered to the true groups.
	MeanPPfairTrue float64 `json:"mean_ppfair_true"`
	// MeanExpectedPPfair is the probabilistic audit under the posterior
	// Membership the channel attaches — the fairness that is knowable
	// after corruption, between the two above.
	MeanExpectedPPfair float64 `json:"mean_expected_ppfair"`
	MeanNDCG           float64 `json:"mean_ndcg"`
}

// NoiseCurve is one algorithm × scenario degradation curve over the
// sweep's level grid.
type NoiseCurve struct {
	Algorithm string `json:"algorithm"`
	Noise     string `json:"noise,omitempty"`
	Scenario  string `json:"scenario"`
	N         int    `json:"n"`
	Groups    int    `json:"groups"`
	Draws     int    `json:"draws"`
	// ZeroNoiseIdentical reports that every noiseless level of the grid
	// reproduced the uncorrupted base sweep's ranking sequence draw for
	// draw, ID for ID.
	ZeroNoiseIdentical bool              `json:"zero_noise_identical"`
	Points             []NoiseCurvePoint `json:"points"`
	Violations         []Violation       `json:"violations,omitempty"`
}

// NoiseReport is the machine-readable outcome of a degradation sweep.
type NoiseReport struct {
	Draws     int                  `json:"draws"`
	AuditTopK int                  `json:"audit_top_k"`
	Seed      int64                `json:"seed"`
	Levels    []scenario.NoiseSpec `json:"levels"`

	Curves []NoiseCurve `json:"curves"`
	// Violations flattens every curve's violations; empty means every
	// anchor was bit-identical and every sweep ran clean.
	Violations []Violation `json:"violations"`
}

// Failed reports whether any check failed.
func (r *NoiseReport) Failed() bool { return len(r.Violations) > 0 }

// WriteJSON renders the report as indented JSON.
func (r *NoiseReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders a one-line human summary.
func (r *NoiseReport) Summary() string {
	algos := map[string]bool{}
	for _, c := range r.Curves {
		algos[c.Algorithm] = true
	}
	return fmt.Sprintf("noise sweep: %d curves over %d algorithms × %d levels, %d draws each: %d violations",
		len(r.Curves), len(algos), len(r.Levels), r.Draws, len(r.Violations))
}

// RunNoiseSweep executes the degradation sweep: every registry
// algorithm (honoring Config.Algorithms and the "test:" convention,
// one noise axis per algorithm) × every scenario (default the "noise"
// corpus) × every level of the grid (default scenario.NoiseLevels,
// which must contain a noiseless anchor). Setup failures are errors;
// behavioral failures are Violations in the report, exactly as in Run.
func RunNoiseSweep(ctx context.Context, cfg Config, levels []scenario.NoiseSpec) (*NoiseReport, error) {
	cfg = cfg.withDefaults()
	if levels == nil {
		levels = scenario.NoiseLevels(cfg.Seed)
	}
	anchored := false
	for _, l := range levels {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("conformance: %w", err)
		}
		anchored = anchored || l.IsZero()
	}
	if !anchored {
		return nil, fmt.Errorf("conformance: noise sweep needs a noiseless anchor level")
	}
	if len(cfg.Scenarios) == 0 {
		specs, err := scenario.Corpus("noise")
		if err != nil {
			return nil, err
		}
		cfg.Scenarios = specs
	}
	algos := cfg.Algorithms
	if algos == nil {
		for _, a := range fairrank.Algorithms() {
			if !strings.HasPrefix(a.Name, testPrefix) {
				algos = append(algos, a)
			}
		}
	}
	if len(algos) == 0 {
		return nil, fmt.Errorf("conformance: no algorithms to sweep")
	}
	pools := make(map[string][]fairrank.Candidate, len(cfg.Scenarios))
	for _, spec := range cfg.Scenarios {
		pool, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("conformance: %w", err)
		}
		pools[spec.Name] = pool
	}
	rep := &NoiseReport{Draws: cfg.Draws, AuditTopK: cfg.AuditTopK, Seed: cfg.Seed, Levels: levels}
	for _, info := range algos {
		noise := sweepNoise(info)
		for _, spec := range cfg.Scenarios {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if skipScenario(info, spec) {
				continue
			}
			curve := evalNoiseCurve(ctx, cfg, info, noise, spec, pools[spec.Name], levels)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rep.Curves = append(rep.Curves, curve)
			rep.Violations = append(rep.Violations, curve.Violations...)
		}
	}
	sortViolations(rep.Violations)
	return rep, nil
}

// sweepNoise picks one noise axis per algorithm — a degradation curve
// is per algorithm, not per algorithm×noise pair, so a free sampling
// axis resolves to the default, the paper's Mallows mechanism.
func sweepNoise(info fairrank.AlgorithmInfo) pairNoise {
	if !info.Sampling {
		return pairNoise{}
	}
	if info.Noise != "" {
		return pairNoise{pair: string(info.Noise)}
	}
	return pairNoise{request: string(fairrank.NoiseMallows), pair: string(fairrank.NoiseMallows)}
}

// evalNoiseCurve measures one algorithm × scenario curve: an
// uncorrupted base sweep first, then one sweep per level with the same
// seed, so noiseless levels must reproduce the base sequence exactly.
func evalNoiseCurve(ctx context.Context, cfg Config, info fairrank.AlgorithmInfo, noise pairNoise, spec scenario.Spec, pool []fairrank.Candidate, levels []scenario.NoiseSpec) NoiseCurve {
	curve := NoiseCurve{Algorithm: info.Name, Noise: noise.pair, Scenario: spec.Name, N: spec.N, Groups: spec.Groups}
	violate := func(v Violation) {
		v.Algorithm = info.Name
		v.Noise = noise.pair
		v.Scenario = spec.Name
		curve.Violations = append(curve.Violations, v)
	}
	central := fairrank.CentralWeaklyFair
	if info.Sampling {
		central = fairrank.CentralFairDCG
	}
	ranker, err := fairrank.NewRanker(fairrank.Config{
		Algorithm: fairrank.Algorithm(info.Name),
		Central:   central,
	})
	if err != nil {
		violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf("constructing the ranker failed: %v", err)})
		return curve
	}
	draws := cfg.Draws
	if info.Deterministic {
		draws = cfg.DetDraws
	}
	curve.Draws = draws
	baseSeed := pairSeed(cfg.Seed, info.Name, noise.pair, spec.Name)
	auditK := min(cfg.AuditTopK, spec.N)
	theta := 1.0
	request := func(cands []fairrank.Candidate) fairrank.Request {
		return fairrank.Request{
			Candidates: cands,
			Theta:      &theta,
			Noise:      fairrank.Noise(noise.request),
			Seed:       &baseSeed,
		}
	}
	trueGroup := make(map[string]string, len(pool))
	for _, c := range pool {
		trueGroup[c.ID] = c.Group
	}

	// Base sweep on the uncorrupted pool: the identity anchor the
	// noiseless levels are held to.
	base, err := noiseRun(ctx, ranker, request(pool), draws, auditK, trueGroup)
	if err != nil {
		violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf("uncorrupted base sweep failed: %v", err)})
		return curve
	}

	zeroOK := true
	for _, level := range levels {
		corrupted, err := level.Apply(pool)
		if err != nil {
			violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf(
				"applying noise level (flip %v, missing %v) failed: %v", level.Flip, level.Missing, err)})
			if level.IsZero() {
				zeroOK = false
			}
			continue
		}
		pt, err := noiseRun(ctx, ranker, request(corrupted), draws, auditK, trueGroup)
		if err != nil {
			violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf(
				"sweep at noise level (flip %v, missing %v) failed: %v", level.Flip, level.Missing, err)})
			if level.IsZero() {
				zeroOK = false
			}
			continue
		}
		if level.IsZero() {
			for i := range base.ids {
				if !equalIDs(base.ids[i], pt.ids[i]) {
					zeroOK = false
					violate(Violation{Check: CheckZeroNoiseIdentity, Observed: float64(i), Detail: fmt.Sprintf(
						"draw %d of the noiseless level differs from the uncorrupted base sweep (seed %d) — the zero channel or the engine's one-hot membership path perturbs rankings it must not touch",
						i, baseSeed)})
					break
				}
			}
		}
		curve.Points = append(curve.Points, NoiseCurvePoint{
			Flip:               level.Flip,
			Missing:            level.Missing,
			MeanPPfairObserved: stats.Mean(pt.observed),
			MeanPPfairTrue:     stats.Mean(pt.truth),
			MeanExpectedPPfair: stats.Mean(pt.expected),
			MeanNDCG:           stats.Mean(pt.ndcg),
		})
	}
	curve.ZeroNoiseIdentical = zeroOK
	return curve
}

// noisePoint is one sweep's raw per-draw measurements: the three
// fairness readings of each ranking plus quality and the ID sequences
// the identity check compares.
type noisePoint struct {
	ids      [][]string
	observed []float64
	truth    []float64
	expected []float64
	ndcg     []float64
}

// noiseRun samples draws rankings and audits each three ways: against
// the labels the ranking carries (observed), against the uncorrupted
// pool's labels (true), and in expectation under the Membership
// posteriors (expected).
func noiseRun(ctx context.Context, ranker *fairrank.Ranker, req fairrank.Request, draws, auditK int, trueGroup map[string]string) (*noisePoint, error) {
	out := &noisePoint{}
	err := ranker.Sample(ctx, req, draws, func(i int, res *fairrank.Result) error {
		k := min(auditK, len(res.Ranking))
		tol := res.Diagnostics.Tolerance
		observed, err := fairrank.PPfairTopK(res.Ranking, k, tol)
		if err != nil {
			return fmt.Errorf("conformance: observed audit of draw %d: %w", i, err)
		}
		relabeled := make([]fairrank.Candidate, len(res.Ranking))
		for j, c := range res.Ranking {
			g, ok := trueGroup[c.ID]
			if !ok {
				return fmt.Errorf("conformance: draw %d ranked %q, which is not in the uncorrupted pool", i, c.ID)
			}
			c.Group = g
			c.Membership = nil
			relabeled[j] = c
		}
		truth, err := fairrank.PPfairTopK(relabeled, k, tol)
		if err != nil {
			return fmt.Errorf("conformance: true-label audit of draw %d: %w", i, err)
		}
		expected, err := fairrank.ExpectedPPfairTopK(res.Ranking, k, tol)
		if err != nil {
			return fmt.Errorf("conformance: expected audit of draw %d: %w", i, err)
		}
		out.ids = append(out.ids, idsOf(res))
		out.observed = append(out.observed, observed)
		out.truth = append(out.truth, truth)
		out.expected = append(out.expected, expected)
		out.ndcg = append(out.ndcg, res.Diagnostics.NDCG)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
