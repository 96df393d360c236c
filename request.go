package fairrank

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/perm"
	"repro/internal/quality"
	"repro/internal/rankers"
)

// Request asks a Ranker for one fair ranking. Candidates is the pool to
// rank; every other field is a per-request override of the Ranker's
// Config. Override fields are pointers so that an explicit zero is a
// real value rather than "unset": Theta = 0 is uniform noise (every
// permutation equally likely) and Tolerance = 0 is exact proportional
// representation — both legitimate settings that Config's zero-means-
// default convention cannot express. A nil override inherits the
// Config value (after Config's own defaulting).
//
// Every override is cheap: the Ranker's amortized draw state is keyed
// by (pool size, θ) alone, so one Ranker serves requests of any
// algorithm, central ranking or dispersion, and they share its cache
// instead of invalidating it.
type Request struct {
	// Candidates is the pool to rank; must be nonempty with unique,
	// nonempty IDs, nonempty Groups, and non-NaN scores.
	Candidates []Candidate
	// Algorithm overrides Config.Algorithm when nonempty: any name in
	// the registry.
	Algorithm Algorithm
	// Central overrides Config.Central when nonempty.
	Central Central
	// WeakK overrides Config.WeakK, the prefix length of the weakly
	// fair central: ≥ 1 on every central, and at most the pool size on
	// the weakly fair one.
	WeakK *int
	// Sigma overrides Config.Sigma (constraint noise of the
	// attribute-aware algorithms); must be finite and ≥ 0.
	Sigma *float64
	// Theta overrides Config.Theta (Mallows dispersion); must be finite
	// and ≥ 0.
	// 0 draws uniformly random permutations.
	Theta *float64
	// Samples overrides Config.Samples (best-of-m draw count); ≥ 1.
	Samples *int
	// Criterion overrides Config.Criterion when nonempty. The empty
	// string inherits (no Criterion value is empty, so a string field
	// carries no zero ambiguity).
	Criterion Criterion
	// Noise overrides Config.Noise when nonempty: the randomization
	// mechanism the sampling algorithms draw from (see Noises).
	// Algorithms that pin their own mechanism ignore it.
	Noise Noise
	// Tolerance overrides Config.Tolerance (proportional-constraint
	// slack); must be ≥ 0. 0 demands exact proportionality.
	Tolerance *float64
	// TopK truncates Result.Ranking to the best TopK candidates and
	// scopes the fairness audit to those prefixes; must be ≥ 1 and is
	// clamped to the pool size. Nil returns the full ranking.
	TopK *int
	// Seed overrides Config.Seed. Equal resolved requests with equal
	// seeds produce equal rankings.
	Seed *int64
}

// Result is a ranking plus the diagnostics of how it was produced,
// computed from state the engine already holds — no second ranking or
// evaluation pass over the pool.
type Result struct {
	// Ranking lists the candidates best first, truncated to the
	// request's TopK when set.
	Ranking []Candidate
	// Diagnostics reports the resolved parameters and the self-audit of
	// the ranking.
	Diagnostics Diagnostics
}

// Diagnostics reports the resolved request parameters (after override
// resolution) and quality/fairness measurements of the returned ranking.
// The JSON tags are the diagnostics block of fairrankd's responses
// (service.Diagnostics is this type).
type Diagnostics struct {
	// Algorithm, Central, Criterion, Theta, Samples, Tolerance, and Seed
	// are the values the request actually ran with, after applying
	// Config defaults and Request overrides.
	Algorithm Algorithm `json:"algorithm"`
	Central   Central   `json:"central"`
	Criterion Criterion `json:"criterion"`
	Theta     float64   `json:"theta"`
	Samples   int       `json:"samples"`
	Tolerance float64   `json:"tolerance"`
	Seed      int64     `json:"seed"`
	// Noise is the randomization mechanism the request actually drew
	// from (after resolving the algorithm's pinned mechanism and the
	// request override); empty for the deterministic algorithms, which
	// draw nothing.
	Noise Noise `json:"noise,omitempty"`
	// TopK is the length of Result.Ranking (the pool size when the
	// request set no truncation).
	TopK int `json:"top_k"`
	// NDCG measures the delivered ranking against the score-ideal order:
	// the full-ranking NDCG when the request set no truncation, NDCG@TopK
	// (pool-wide ideal as normalizer) when it did — the truncated draw
	// path never materializes the ranks a TopK response discards, so
	// every quality measurement is scoped to what was delivered. For the
	// NDCG selection criterion this is the winning sample's selection
	// score, reused rather than recomputed.
	NDCG float64 `json:"ndcg"`
	// DrawsEvaluated counts Mallows samples drawn and scored: Samples
	// for mallows-best, 1 for mallows, 0 for the deterministic
	// algorithms.
	DrawsEvaluated int `json:"draws_evaluated"`
	// CentralKendallTau counts Kendall tau pairs the delivered ranking
	// orders against the central ranking the noise was centred on: the
	// full Kendall tau distance when the request set no truncation,
	// otherwise the discordant pairs within the delivered prefix (for
	// the KT criterion, the winning sample's selection score, reused).
	CentralKendallTau int64 `json:"central_kendall_tau"`
	// PPfair is the percentage of P-fair positions (Definition 4) of
	// the first TopK prefixes under the resolved tolerance, audited
	// against the Group attribute.
	PPfair float64 `json:"ppfair"`
	// InfeasibleIndex is the Two-Sided Infeasible Index (Definition 3)
	// over the first TopK prefixes.
	InfeasibleIndex int `json:"infeasible_index"`
	// Probabilistic carries the expected-fairness audit and is only
	// present when at least one candidate stated a Membership
	// distribution; requests with hard labels only are unchanged. When
	// every Membership is one-hot, its metrics equal the deterministic
	// PPfair/InfeasibleIndex bit for bit.
	Probabilistic *ProbDiagnostics `json:"probabilistic,omitempty"`
}

// ProbDiagnostics audits the delivered ranking against the candidates'
// Membership distributions: each prefix count is the expected number of
// members under the stated probabilities rather than a hard tally.
type ProbDiagnostics struct {
	// ExpectedPPfair is PPfair with expected prefix counts in place of
	// hard counts, over the first TopK prefixes.
	ExpectedPPfair float64 `json:"expected_ppfair"`
	// ExpectedInfeasibleIndex counts the first TopK prefixes whose
	// expected counts breach the (α,β) bounds.
	ExpectedInfeasibleIndex int `json:"expected_infeasible_index"`
	// ExpectedDisparateExposure is the worst group's expected-exposure
	// share divided by its expected share of the delivered prefix
	// (1 = perfectly proportional attention), under the standard
	// 1/log₂(1+rank) discount.
	ExpectedDisparateExposure float64 `json:"expected_disparate_exposure"`
	// ExpectedExposureGap is the largest |expected exposure share −
	// expected prefix share| over groups under the same discount.
	ExpectedExposureGap float64 `json:"expected_exposure_gap"`
}

// Do serves one request: it resolves the request's overrides against the
// Ranker's Config, ranks the candidates, and returns the ranking with
// its diagnostics. It is DoParallel on one worker, so for one seed Do,
// DoParallel at any worker count and the package-level Rank return the
// same ranking.
//
// ctx cancellation and deadlines are honored between Mallows draws; a
// cancelled context aborts the best-of-m loop promptly with ctx.Err().
// The deterministic algorithms check ctx only before dispatch.
func (r *Ranker) Do(ctx context.Context, req Request) (*Result, error) {
	return r.DoParallel(ctx, req, 1)
}

// DoParallel is Do with the best-of-m draws fanned out over up to
// workers goroutines; at one worker (or fewer) the draws run on the
// caller's goroutine. Draw i of a request comes from an RNG stream
// seeded with a mix of (seed, i), and a Strategy draws from the stream
// of draw 0, so the result depends only on the seed, never on workers.
func (r *Ranker) DoParallel(ctx context.Context, req Request, workers int) (*Result, error) {
	r.statRequests.Add(1)
	p, err := r.prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	return r.rank(ctx, p, workers)
}

// prepared is a request ready to rank: its candidates, its resolved
// configuration, the registry entry of its algorithm, its assembled
// instance and the length of the prefix it delivers.
type prepared struct {
	candidates []Candidate
	cfg        Config
	entry      algorithmEntry
	in         rankers.Instance
	topK       int
}

// Check validates req exactly as Do does, without ranking it: when Do
// would refuse req as invalid, Check returns the same error. On success
// it returns how many draws DoParallel can fan out for req: Samples for
// a best-of sampling algorithm, 1 otherwise. A serving layer calls it
// before admission, so an invalid request is refused whatever the load,
// and sizes the request's worker grant from the count. Check may return
// nil for a request Do still fails: the central ranking, the
// constraints or the algorithm itself can prove infeasible.
func (r *Ranker) Check(req Request) (workers int, err error) {
	p, _, err := r.check(req)
	if err != nil {
		return 0, err
	}
	return p.draws(), nil
}

// draws is how many draws the request's algorithm makes, and so how
// many DoParallel can fan out: Samples for a best-of sampling entry, 1
// otherwise.
func (p prepared) draws() int {
	if p.entry.info.Sampling && p.entry.info.BestOf {
		return p.cfg.Samples
	}
	return 1
}

// prepare is the first half of every serving path (DoParallel and
// Sample): it checks req and assembles its instance.
func (r *Ranker) prepare(ctx context.Context, req Request) (prepared, error) {
	p, labels, err := r.check(req)
	if err != nil {
		return prepared{}, err
	}
	if err := ctx.Err(); err != nil {
		return prepared{}, err
	}
	if p.in, err = buildInstance(req.Candidates, p.cfg, labels); err != nil {
		return prepared{}, err
	}
	return p, nil
}

// check is every rule a request must satisfy, in one place: a nonempty
// pool, the resolved configuration (see resolve), weak_k within the
// pool on the weakly fair central, the candidates (see
// checkCandidates) and the algorithm's group-count bounds. It returns
// the request prepared up to its instance, and the pool's group labels
// for buildInstance.
func (r *Ranker) check(req Request) (prepared, groupLabels, error) {
	n := len(req.Candidates)
	if n == 0 {
		return prepared{}, groupLabels{}, fmt.Errorf("fairrank: empty candidate set")
	}
	cfg, entry, topK, err := r.resolve(req)
	if err != nil {
		return prepared{}, groupLabels{}, err
	}
	if cfg.Central == CentralWeaklyFair && cfg.WeakK > n {
		return prepared{}, groupLabels{}, fmt.Errorf("fairrank: weak_k = %d, want ≤ %d, the pool size", cfg.WeakK, n)
	}
	labels, err := checkCandidates(req.Candidates)
	if err != nil {
		return prepared{}, groupLabels{}, err
	}
	if err := entry.info.checkGroups(len(labels.names)); err != nil {
		return prepared{}, groupLabels{}, err
	}
	return prepared{candidates: req.Candidates, cfg: cfg, entry: entry, topK: topK}, labels, nil
}

// rank is the second half of every serving path: it ranks a prepared
// request's instance, audits the ranking and materializes the delivered
// prefix of candidates.
func (r *Ranker) rank(ctx context.Context, p prepared, workers int) (*Result, error) {
	out, score, scored, draws, noise, err := r.rankInstance(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	diag, err := diagnose(p.in, p.cfg, out, p.topK, score, scored, draws, noise)
	if err != nil {
		return nil, err
	}
	return &Result{
		Ranking:     pickCandidates(p.candidates, out[:p.topK]),
		Diagnostics: diag,
	}, nil
}

// rankInstance ranks one prepared instance with its resolved algorithm
// entry and configuration. It returns the chosen ranking — full-length,
// or just the delivered prefix when the truncated draw path served a
// TopK request — the winning selection score (when a best-of criterion
// ran), the draw count, and the noise mechanism actually drawn from
// (empty for non-sampling algorithms).
func (r *Ranker) rankInstance(ctx context.Context, p prepared, workers int) (perm.Perm, float64, bool, int, Noise, error) {
	var (
		out    perm.Perm
		score  float64
		scored bool
		draws  int
		noise  Noise
	)
	cfg, entry, in := p.cfg, p.entry, p.in
	if entry.info.Sampling {
		// The engine-managed Algorithm-1 family: best-of-m draws from
		// the resolved noise mechanism around the central ranking, with
		// cancellation between draws and fan-out over workers.
		samples, crit := p.draws(), core.SelectFirst
		if entry.info.BestOf {
			scored, crit = true, core.SelectNDCG
			if cfg.Criterion == CriterionKT {
				crit = core.SelectKT
			}
		}
		noise = entry.info.Noise
		if noise == "" {
			noise = cfg.Noise
		}
		if err := in.Validate(); err != nil {
			return nil, 0, false, 0, "", err
		}
		plan, err := r.eng.Plan(core.Noise(noise), in.Initial, cfg.Theta, p.topK)
		if err != nil {
			return nil, 0, false, 0, "", err
		}
		out, score, err = r.eng.Best(ctx, plan, in.Scores, crit, samples, workers, cfg.Seed)
		plan.Release()
		if err != nil {
			return nil, 0, false, 0, "", err
		}
		draws = samples
		if plan.Truncated() {
			r.truncDraws[noise].Add(int64(draws))
		} else {
			r.statDrawsFull.Add(int64(draws))
		}
	} else {
		strat, serr := entry.factory(cfg)
		if serr != nil {
			return nil, 0, false, 0, "", serr
		}
		rng := r.eng.RNG(cfg.Seed)
		idx, rerr := strat.Rank(&Instance{in: in}, rng)
		r.eng.PutRNG(rng)
		if rerr != nil {
			return nil, 0, false, 0, "", fmt.Errorf("fairrank: %s: %w", entry.info.Name, rerr)
		}
		out = perm.Perm(idx)
		// Validate Strategy output uniformly: a defective (possibly
		// third-party) strategy must surface as an error, never as a
		// corrupted ranking or an out-of-range panic in the audit.
		if len(out) != len(in.Initial) {
			return nil, 0, false, 0, "", fmt.Errorf("fairrank: %s: returned %d indices for %d candidates", entry.info.Name, len(out), len(in.Initial))
		}
		if err := out.Validate(); err != nil {
			return nil, 0, false, 0, "", fmt.Errorf("fairrank: %s: invalid ranking: %w", entry.info.Name, err)
		}
	}
	return out, score, scored, draws, noise, nil
}

// resolve merges the Ranker's Config (with its defaults applied for the
// request's pool size) and the request's overrides, validates the
// merged configuration once (see Config.validate), and returns the
// registry entry of the resolved algorithm and the delivered prefix
// length. The resolution order is: Request field if set, else Config
// field if nonzero, else the built-in default.
func (r *Ranker) resolve(req Request) (Config, algorithmEntry, int, error) {
	n := len(req.Candidates)
	cfg := r.cfg.withDefaults(n)
	if req.Algorithm != "" {
		cfg.Algorithm = req.Algorithm
	}
	if req.Central != "" {
		cfg.Central = req.Central
	}
	if req.WeakK != nil {
		cfg.WeakK = *req.WeakK
	}
	if req.Sigma != nil {
		cfg.Sigma = *req.Sigma
	}
	if req.Theta != nil {
		cfg.Theta = *req.Theta
	}
	if req.Samples != nil {
		cfg.Samples = *req.Samples
	}
	if req.Criterion != "" {
		cfg.Criterion = req.Criterion
	}
	if req.Noise != "" {
		cfg.Noise = req.Noise
	}
	if req.Tolerance != nil {
		cfg.Tolerance = *req.Tolerance
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	// Only a request naming another algorithm touches the registry (and
	// its lock); the Ranker's own entry was captured at construction.
	entry, err := cfg.validate(r.entry)
	if err != nil {
		return Config{}, algorithmEntry{}, 0, err
	}
	topK := n
	if req.TopK != nil {
		if *req.TopK < 1 {
			return Config{}, algorithmEntry{}, 0, fmt.Errorf("fairrank: top_k = %d, want ≥ 1", *req.TopK)
		}
		topK = min(*req.TopK, n)
	}
	return cfg, entry, topK, nil
}

// diagnose assembles the Result diagnostics from state the serving path
// already holds: the instance's scores, central ranking, groups, and
// materialized prefix bounds, plus the selection score when the
// best-of-m loop computed one. One O(topK·groups) violation scan audits
// both PPfair and the infeasible index; NDCG and the central Kendall tau
// are reused from the selection criterion when it already computed them.
//
// Every measurement is scoped to the delivered prefix out[:topK] — out
// itself may be full-length or already just the prefix, depending on
// which draw path served the request, and the diagnostics must not
// depend on which it was. At topK = pool size the prefix formulas are
// the full-ranking NDCG and Kendall tau distance, bit for bit.
func diagnose(in rankers.Instance, cfg Config, out perm.Perm, topK int, score float64, scored bool, draws int, noise Noise) (Diagnostics, error) {
	d := Diagnostics{
		Algorithm:      cfg.Algorithm,
		Central:        cfg.Central,
		Criterion:      cfg.Criterion,
		Theta:          cfg.Theta,
		Samples:        cfg.Samples,
		Tolerance:      cfg.Tolerance,
		Seed:           cfg.Seed,
		Noise:          noise,
		TopK:           topK,
		DrawsEvaluated: draws,
	}
	pfx := out[:topK]
	if scored && cfg.Criterion == CriterionNDCG {
		d.NDCG = score
	} else {
		// NDCG@topK with the pool-wide ideal as normalizer — the same
		// quantity the prefix-scoped selection criterion optimizes.
		dcg, err := quality.DCG(pfx, in.Scores, topK)
		if err != nil {
			return Diagnostics{}, err
		}
		idcg, err := quality.IDCG(in.Initial, in.Scores, topK)
		if err != nil {
			return Diagnostics{}, err
		}
		if idcg == 0 {
			d.NDCG = 1
		} else {
			d.NDCG = dcg / idcg
		}
	}
	if scored && cfg.Criterion == CriterionKT {
		d.CentralKendallTau = int64(-score)
	} else {
		// Kendall tau pairs within the prefix against the center: the
		// inversions of the prefix's center-position sequence.
		pos := in.Initial.Positions()
		seq := make(perm.Perm, topK)
		for i, item := range pfx {
			seq[i] = pos[item]
		}
		d.CentralKendallTau = seq.InversionCount()
	}
	v, err := fairness.EvaluateViolations(pfx, in.Groups, in.Bounds)
	if err != nil {
		return Diagnostics{}, err
	}
	d.InfeasibleIndex = v.TwoSidedAt(topK)
	d.PPfair = 100 * (1 - float64(d.InfeasibleIndex)/float64(topK))
	if in.Prob != nil {
		ev, err := fairness.EvaluateExpectedViolations(pfx, in.Prob, in.Bounds)
		if err != nil {
			return Diagnostics{}, err
		}
		pd := &ProbDiagnostics{ExpectedInfeasibleIndex: ev.TwoSidedAt(topK)}
		pd.ExpectedPPfair = 100 * (1 - float64(pd.ExpectedInfeasibleIndex)/float64(topK))
		pd.ExpectedDisparateExposure, err = fairness.ExpectedDisparateExposureAgainst(pfx, in.Prob, nil, fairness.BaselinePrefix)
		if err != nil {
			return Diagnostics{}, err
		}
		pd.ExpectedExposureGap, err = fairness.ExpectedExposureGapAgainst(pfx, in.Prob, nil, fairness.BaselinePrefix)
		if err != nil {
			return Diagnostics{}, err
		}
		d.Probabilistic = pd
	}
	return d, nil
}
