package fairrank

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/fairdp"
	"repro/internal/fairness"
	"repro/internal/perm"
	"repro/internal/quality"
	"repro/internal/rankers"
)

// Candidate is one item to rank. The JSON tags are the wire form
// fairrankd accepts (service.Candidate is this type).
type Candidate struct {
	// ID identifies the candidate; must be unique and nonempty.
	ID string `json:"id"`
	// Score is the quality/relevance score (higher ranks first).
	Score float64 `json:"score"`
	// Group is the protected attribute value used for fairness
	// constraints. All candidates must carry a nonempty Group when a
	// constraint-based algorithm runs; the Mallows algorithms never read
	// it.
	Group string `json:"group"`
	// Attrs carries additional attribute values for evaluation, e.g.
	// attributes withheld from the ranking algorithms (see PPfairByAttr).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Membership optionally states a probability distribution over group
	// names — the probabilistic protected attribute of Mehrotra & Vishnoi.
	// Keys extend the group universe; values must be finite, lie in
	// [0, 1], and sum to 1 (±1e-9); they are never renormalized. Groups
	// named by Group but absent from the map hold mass 0. A candidate
	// without Membership is treated as one-hot at its Group. Ranking
	// algorithms consume the hard Group; Membership feeds the expected
	// (probabilistic) fairness diagnostics.
	Membership map[string]float64 `json:"membership,omitempty"`
}

// Algorithm selects the post-processing method by its registered name.
// The constants below name the built-ins; Register adds more — the
// registry (see registry.go) is the single source of truth for what is
// rankable, and the serving catalog and CLI usage derive from it.
type Algorithm string

// The built-in post-processors. Each self-registers in builtins.go.
const (
	// AlgorithmMallows draws a single Mallows sample around the weakly
	// fair central ranking (the paper's Algorithm 1 with m = 1).
	AlgorithmMallows Algorithm = "mallows"
	// AlgorithmMallowsBest draws Samples Mallows draws and keeps the one
	// with the highest NDCG (Algorithm 1 with the NDCG criterion).
	AlgorithmMallowsBest Algorithm = "mallows-best"
	// AlgorithmDetConstSort runs Geyik et al.'s DetConstSort.
	AlgorithmDetConstSort Algorithm = "detconstsort"
	// AlgorithmIPF runs Wei et al.'s ApproxMultiValuedIPF
	// (footrule-optimal fair ranking).
	AlgorithmIPF Algorithm = "ipf"
	// AlgorithmGrBinary runs Wei et al.'s GrBinaryIPF (Kendall-tau
	// optimal; requires exactly two groups).
	AlgorithmGrBinary Algorithm = "grbinary"
	// AlgorithmILP computes the DCG-optimal (α,β)-fair ranking of the
	// paper's §IV-B integer program (solved exactly).
	AlgorithmILP Algorithm = "ilp"
	// AlgorithmScoreSorted ranks purely by score (no fairness).
	AlgorithmScoreSorted Algorithm = "score"
	// AlgorithmPlackettLuce draws Samples Plackett–Luce rankings around
	// the central (item weights e^{−θ·central rank}) and keeps the best
	// under the criterion — the paper's §VI beyond-Mallows direction as
	// a first-class algorithm.
	AlgorithmPlackettLuce Algorithm = "pl-best"
	// AlgorithmExPostFair samples a ranking whose every prefix satisfies
	// the (α,β) bounds — fairness holds ex post on each draw, not just in
	// expectation (Gorantla, Deshpande & Louis, IJCAI'23).
	AlgorithmExPostFair Algorithm = "expost-fair"
)

// DefaultAlgorithm is what an empty Config.Algorithm resolves to.
const DefaultAlgorithm = AlgorithmMallowsBest

// Noise selects the randomization mechanism the sampling algorithms
// (the Algorithm-1 family) draw from, by name. The paper's §VI proposes
// exploring mechanisms beyond Mallows; the mechanisms below cover that
// direction.
type Noise string

// The noise mechanisms, the entries of the engine's noise table (see
// Noises).
const (
	// NoiseMallows draws from the Mallows model M(central, θ) — the
	// paper's mechanism and the default. It is served by the engine's
	// amortized (n, θ)-keyed insertion tables.
	NoiseMallows Noise = "mallows"
	// NoiseGMallows draws from the Fligner–Verducci generalized Mallows
	// model with per-position dispersion θ·0.97^j: the head of the
	// ranking stays close to the central while the tail mixes more.
	NoiseGMallows Noise = "gmallows"
	// NoisePlackettLuce draws a Plackett–Luce ranking with item weights
	// e^{−θ·(central rank)}; θ = 0 is uniform.
	NoisePlackettLuce Noise = "plackett-luce"
)

// Central selects the ranking the Mallows mechanism randomizes around
// (§IV-A: "the central ranking could be either the result of a rank
// aggregation problem or any ranking in general").
type Central string

// The available central rankings.
const (
	// CentralWeaklyFair is the paper's default: candidates in descending
	// score order, with the top-WeakK set adjusted to weak k-fairness.
	CentralWeaklyFair Central = "weak"
	// CentralFairDCG centres the noise on the DCG-optimal (α,β)-fair
	// ranking (the §IV-B program). Every prefix of the central satisfies
	// the constraints, so moderate noise keeps strong per-prefix
	// fairness even when scores are heavily group-biased, while the
	// randomization still hedges attributes the constraints never saw.
	CentralFairDCG Central = "fair"
	// CentralScoreOrder centres on the raw score order (no fairness in
	// the central; all fairness comes from the noise).
	CentralScoreOrder Central = "score"
)

// Criterion selects among Mallows samples (Algorithm 1's choose_ranking).
type Criterion string

// The available selection criteria.
const (
	// CriterionNDCG keeps the sample with the highest NDCG.
	CriterionNDCG Criterion = "ndcg"
	// CriterionKT keeps the sample with the smallest Kendall tau
	// distance to the central ranking.
	CriterionKT Criterion = "kt"
)

// The defaults a zero Config field resolves to. Config.withDefaults,
// the serving catalog and the fairrank CLI's flags all read them.
const (
	// DefaultTheta is the noise dispersion of a zero Config.Theta.
	DefaultTheta = 1.0
	// DefaultSamples is the best-of-m draw count of a zero
	// Config.Samples.
	DefaultSamples = 15
	// DefaultTolerance is the constraint slack of a zero
	// Config.Tolerance.
	DefaultTolerance = 0.1
	// DefaultWeakK is the weakly fair prefix length of a zero
	// Config.WeakK, capped at the pool size.
	DefaultWeakK = 10
)

// Config parameterizes Rank and NewRanker. The zero value is usable: it
// runs AlgorithmMallowsBest with the defaults below.
//
// Config carries "zero means default" semantics: a zero Theta,
// Samples, Tolerance, or WeakK is read as "unset" and replaced by the
// documented default, so an explicit Theta = 0 (uniform noise) or
// Tolerance = 0 (exact proportional representation) cannot be expressed
// here. Those are legitimate settings; express them per request through
// Request's pointer-valued override fields, where nil means "inherit"
// and zero is a real value.
type Config struct {
	// Algorithm defaults to AlgorithmMallowsBest.
	Algorithm Algorithm
	// Central picks the Mallows central ranking; defaults to
	// CentralWeaklyFair. Only the Mallows algorithms read it.
	Central Central
	// Criterion picks how AlgorithmMallowsBest selects among samples:
	// CriterionNDCG (default) keeps the highest-quality sample,
	// CriterionKT the sample closest to the central ranking — the right
	// choice when the central is already fair (CentralFairDCG) and the
	// noise is there for robustness, not quality recovery.
	Criterion Criterion
	// Noise picks the randomization mechanism of the sampling
	// algorithms; defaults to NoiseMallows. Algorithms that pin their
	// own mechanism (AlgorithmPlackettLuce) and the non-sampling
	// algorithms ignore it. Request.Noise overrides it per request.
	Noise Noise
	// Theta is the noise dispersion/concentration (default 1): the
	// Mallows dispersion under the default mechanism, the base
	// per-position dispersion for gmallows, the weight-decay strength
	// for plackett-luce — every mechanism receives it. It
	// must be finite and ≥ 0. Zero is read as "unset"; use
	// Request.Theta for an explicit θ = 0 (uniform noise).
	Theta float64
	// Samples is the best-of-m draw count (default 15).
	Samples int
	// Tolerance widens the proportional representation constraints: each
	// group's prefix share must stay within its overall share ±
	// Tolerance. Default 0.1. Zero is read as "unset"; use
	// Request.Tolerance for explicit exact proportionality.
	Tolerance float64
	// WeakK is the prefix length of the weakly fair central ranking
	// (default min(DefaultWeakK, number of candidates)). It must be
	// ≥ 1, and at most the pool size on the weakly fair central.
	WeakK int
	// Sigma adds Gaussian noise to the representation constraints of the
	// attribute-aware algorithms, reproducing the paper's imperfect-
	// knowledge setting. Default 0; must be finite and ≥ 0.
	Sigma float64
	// Seed seeds the randomness; runs with equal seeds are identical.
	// Request.Seed overrides it per request.
	Seed int64
}

func (c Config) withDefaults(n int) Config {
	if c.Algorithm == "" {
		c.Algorithm = DefaultAlgorithm
	}
	if c.Noise == "" {
		c.Noise = NoiseMallows
	}
	if c.Central == "" {
		c.Central = CentralWeaklyFair
	}
	if c.Criterion == "" {
		c.Criterion = CriterionNDCG
	}
	if c.Theta == 0 {
		c.Theta = DefaultTheta
	}
	if c.Samples == 0 {
		c.Samples = DefaultSamples
	}
	if c.Tolerance == 0 {
		c.Tolerance = DefaultTolerance
	}
	if c.WeakK == 0 {
		c.WeakK = min(DefaultWeakK, n)
	}
	return c
}

// validate is the one check of a configuration with its defaults
// applied: NewRanker runs it on the Config, and every request on the
// Config with the request's overrides merged in, so each rule and its
// message exist once. entry is a registry entry the caller already
// holds; validate looks the algorithm up only when c names another one,
// and returns c's entry.
func (c Config) validate(entry algorithmEntry) (algorithmEntry, error) {
	fail := func(format string, args ...any) (algorithmEntry, error) {
		return algorithmEntry{}, fmt.Errorf(format, args...)
	}
	if entry.info.Name != string(c.Algorithm) {
		var err error
		if entry, err = lookupEntry(c.Algorithm); err != nil {
			return algorithmEntry{}, err
		}
	}
	if _, ok := LookupNoise(string(c.Noise)); !ok {
		return fail("%w %q", ErrUnknownNoise, c.Noise)
	}
	switch c.Central {
	case CentralWeaklyFair, CentralFairDCG, CentralScoreOrder:
	default:
		return fail("fairrank: unknown central ranking %q", c.Central)
	}
	switch c.Criterion {
	case CriterionNDCG, CriterionKT:
	default:
		return fail("fairrank: unknown criterion %q", c.Criterion)
	}
	for _, f := range [...]struct {
		name   string
		value  float64
		finite bool
	}{{"theta", c.Theta, true}, {"tolerance", c.Tolerance, false}, {"sigma", c.Sigma, true}} {
		if math.IsNaN(f.value) || f.value < 0 {
			return fail("fairrank: %s = %v, want ≥ 0", f.name, f.value)
		}
		if f.finite && math.IsInf(f.value, 1) {
			return fail("fairrank: %s = %v, want finite", f.name, f.value)
		}
	}
	if c.Samples < 1 {
		return fail("fairrank: samples = %d, want ≥ 1", c.Samples)
	}
	if c.WeakK < 1 {
		return fail("fairrank: weak_k = %d, want ≥ 1", c.WeakK)
	}
	return entry, nil
}

// Rank post-processes candidates into a fair ranking with the configured
// algorithm and returns them in ranked order (best first). The input
// slice is not modified.
//
// Rank builds everything it needs from scratch on every call. When
// serving many requests with one configuration, construct a Ranker once
// instead: it produces identical rankings for identical seeds while
// amortizing the per-call setup.
//
// Rank is the deliberate one-shot entry point, a thin wrapper over
// Ranker.Do for callers that rank once; it cannot express per-request
// overrides, cancellation, or return diagnostics. Servers should
// construct a Ranker and call Do.
func Rank(candidates []Candidate, cfg Config) ([]Candidate, error) {
	r, err := NewRanker(cfg)
	if err != nil {
		return nil, err
	}
	res, err := r.Do(context.Background(), Request{Candidates: candidates, Seed: &cfg.Seed})
	if err != nil {
		return nil, err
	}
	return res.Ranking, nil
}

// groupLabels are the distinct group names of a pool, from its Group
// labels and Membership keys: names lists them sorted and ids numbers
// each by its index in names (see addLabel and numberLabels).
type groupLabels struct {
	ids   map[string]int
	names []string
}

// checkCandidates enforces the candidate rules — nonempty, unique IDs,
// non-NaN scores, nonempty Groups, Membership values in [0,1] under
// nonempty group names, summing to 1 — and returns the pool's numbered
// group labels.
func checkCandidates(candidates []Candidate) (groupLabels, error) {
	fail := func(format string, args ...any) (groupLabels, error) {
		return groupLabels{}, fmt.Errorf(format, args...)
	}
	seen := make(map[string]bool, len(candidates))
	g := groupLabels{ids: map[string]int{}}
	for i, c := range candidates {
		if c.ID == "" {
			return fail("fairrank: candidate %d has an empty id", i)
		}
		if seen[c.ID] {
			return fail("fairrank: duplicate candidate id %q", c.ID)
		}
		seen[c.ID] = true
		if math.IsNaN(c.Score) {
			// A NaN poisons every comparison downstream: it corrupts the
			// IDCG and makes the score-ideal sort order unspecified.
			return fail("fairrank: candidate %q has NaN score", c.ID)
		}
		if c.Group == "" {
			return fail("fairrank: candidate %q has empty Group", c.ID)
		}
		g.names = addLabel(g.ids, g.names, c.Group)
		if c.Membership != nil {
			var sum float64
			for name, p := range c.Membership {
				if name == "" {
					return fail("fairrank: candidate %q membership names an empty group", c.ID)
				}
				if math.IsNaN(p) || p < 0 || p > 1 {
					return fail("fairrank: candidate %q membership for group %q is %v, want in [0,1]", c.ID, name, p)
				}
				sum += p
				g.names = addLabel(g.ids, g.names, name)
			}
			// Probabilities are taken as stated, never renormalized: a
			// wrong sum is a caller bug, not a scaling choice.
			if math.Abs(sum-1) > 1e-9 {
				return fail("fairrank: candidate %q membership sums to %v, want 1", c.ID, sum)
			}
		}
	}
	numberLabels(g.ids, g.names)
	return g, nil
}

// buildInstance assembles the internal ranking instance of a checked
// request: groups numbered by labels, proportional constraints widened
// by cfg.Tolerance, and the central ranking. cfg must already be
// resolved (defaults applied and overrides merged — see Ranker.resolve)
// and the candidates checked (see Ranker.check); buildInstance applies
// no defaulting of its own so that explicit zero overrides survive.
func buildInstance(candidates []Candidate, cfg Config, labels groupLabels) (rankers.Instance, error) {
	n := len(candidates)
	assign := make([]int, n)
	scores := make(quality.Scores, n)
	for i, c := range candidates {
		assign[i] = labels.ids[c.Group]
		scores[i] = c.Score
	}
	gr, err := fairness.NewGroups(assign, len(labels.names))
	if err != nil {
		return rankers.Instance{}, err
	}
	// Nil unless some candidate carries a Membership: the probabilistic
	// diagnostics are opt-in, and requests without the field keep their
	// exact historical outputs.
	var prob *fairness.ProbGroups
	for _, c := range candidates {
		if c.Membership != nil {
			prob, err = membershipRows(candidates, labels.ids, len(labels.names))
			if err != nil {
				return rankers.Instance{}, fmt.Errorf("fairrank: building membership distribution: %w", err)
			}
			break
		}
	}
	cons, err := fairness.Proportional(gr, cfg.Tolerance)
	if err != nil {
		return rankers.Instance{}, err
	}
	bounds := cons.Table(n)
	var central perm.Perm
	switch cfg.Central {
	case CentralWeaklyFair:
		central, err = fairness.WeaklyFairRanking(scores, gr, cons, cfg.WeakK)
	case CentralFairDCG:
		// Solve only reads the table, so the instance shares it.
		central, _, err = fairdp.Solve(scores, gr, bounds, nil)
	case CentralScoreOrder:
		central = quality.Ideal(perm.Identity(n), scores)
	}
	if err != nil {
		return rankers.Instance{}, fmt.Errorf("fairrank: building central ranking: %w", err)
	}
	return rankers.Instance{
		Initial: central,
		Scores:  scores,
		Groups:  gr,
		Bounds:  bounds,
		Prob:    prob,
	}, nil
}

// NDCG returns the normalized discounted cumulative gain of the ranked
// candidates against the score-ideal order of the same candidates.
func NDCG(ranked []Candidate) (float64, error) {
	scores := make(quality.Scores, len(ranked))
	for i, c := range ranked {
		scores[i] = c.Score
	}
	return quality.NDCG(perm.Identity(len(ranked)), scores, len(ranked))
}

// KendallTau returns the number of candidate pairs on which the two
// rankings disagree. Both must rank exactly the same candidate IDs.
func KendallTau(a, b []Candidate) (int64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("fairrank: rankings of size %d vs %d", len(a), len(b))
	}
	posB := make(map[string]int, len(b))
	for r, c := range b {
		if _, dup := posB[c.ID]; dup {
			return 0, fmt.Errorf("fairrank: duplicate ID %q", c.ID)
		}
		posB[c.ID] = r
	}
	rel := make(perm.Perm, len(a))
	for r, c := range a {
		p, ok := posB[c.ID]
		if !ok {
			return 0, fmt.Errorf("fairrank: candidate %q missing from second ranking", c.ID)
		}
		rel[r] = p
	}
	if err := rel.Validate(); err != nil {
		return 0, fmt.Errorf("fairrank: rankings disagree on the candidate set: %w", err)
	}
	return rel.InversionCount(), nil
}

// PPfair returns the percentage of P-fair positions (Definition 4 of the
// paper) of the ranked candidates with respect to their Group attribute,
// under proportional constraints widened by tol.
func PPfair(ranked []Candidate, tol float64) (float64, error) {
	groups := make([]string, len(ranked))
	for i, c := range ranked {
		groups[i] = c.Group
	}
	return ppfairOf(ranked, groups, tol)
}

// PPfairTopK is PPfair restricted to the first k prefixes — the natural
// audit when only a shortlist of the ranking is consumed. Constraints
// are still proportional to the groups of the whole ranked pool.
func PPfairTopK(ranked []Candidate, k int, tol float64) (float64, error) {
	groups := make([]string, len(ranked))
	for i, c := range ranked {
		groups[i] = c.Group
	}
	gr, cons, err := groupsAndConstraints(groups, tol)
	if err != nil {
		return 0, err
	}
	return fairness.PPfairAt(perm.Identity(len(ranked)), gr, cons, k)
}

// ExpectedPPfairTopK is PPfairTopK under probabilistic group
// membership: each candidate's Membership distribution (one-hot at its
// hard Group when absent) replaces the hard label, the proportional
// constraints target expected group shares, and prefix counts are
// expected counts. On a pool whose memberships are all exactly one-hot
// the result is bit-identical to PPfairTopK — the library-level face of
// the fairness layer's one-hot equivalence guarantee.
func ExpectedPPfairTopK(ranked []Candidate, k int, tol float64) (float64, error) {
	if len(ranked) == 0 {
		return 0, fmt.Errorf("fairrank: empty ranking")
	}
	ids := map[string]int{}
	var names []string
	for i, c := range ranked {
		if c.Group == "" {
			return 0, fmt.Errorf("fairrank: candidate %d has empty group", i)
		}
		names = addLabel(ids, names, c.Group)
		for name := range c.Membership {
			if name == "" {
				return 0, fmt.Errorf("fairrank: candidate %q membership names an empty group", c.ID)
			}
			names = addLabel(ids, names, name)
		}
	}
	numberLabels(ids, names)
	pg, err := membershipRows(ranked, ids, len(names))
	if err != nil {
		return 0, err
	}
	cons, err := fairness.ProportionalProb(pg, tol)
	if err != nil {
		return 0, err
	}
	return fairness.ExpectedPPfairAt(perm.Identity(len(ranked)), pg, cons, k)
}

// PPfairByAttr is PPfair evaluated against an attribute from
// Candidate.Attrs instead of Group — the paper's "unknown protected
// attribute" evaluation. Every candidate must carry the attribute.
func PPfairByAttr(ranked []Candidate, attr string, tol float64) (float64, error) {
	groups := make([]string, len(ranked))
	for i, c := range ranked {
		v, ok := c.Attrs[attr]
		if !ok || v == "" {
			return 0, fmt.Errorf("fairrank: candidate %q lacks attribute %q", c.ID, attr)
		}
		groups[i] = v
	}
	return ppfairOf(ranked, groups, tol)
}

// InfeasibleIndex returns the Two-Sided Infeasible Index (Definition 3)
// of the ranked candidates with respect to their Group attribute.
func InfeasibleIndex(ranked []Candidate, tol float64) (int, error) {
	groups := make([]string, len(ranked))
	for i, c := range ranked {
		groups[i] = c.Group
	}
	gr, cons, err := groupsAndConstraints(groups, tol)
	if err != nil {
		return 0, err
	}
	return fairness.TwoSidedInfeasibleIndex(perm.Identity(len(ranked)), gr, cons)
}

func ppfairOf(ranked []Candidate, groups []string, tol float64) (float64, error) {
	gr, cons, err := groupsAndConstraints(groups, tol)
	if err != nil {
		return 0, err
	}
	return fairness.PPfair(perm.Identity(len(ranked)), gr, cons)
}

func groupsAndConstraints(groups []string, tol float64) (*fairness.Groups, *fairness.Constraints, error) {
	if len(groups) == 0 {
		return nil, nil, fmt.Errorf("fairrank: empty ranking")
	}
	ids := map[string]int{}
	var names []string
	for i, g := range groups {
		if g == "" {
			return nil, nil, fmt.Errorf("fairrank: candidate %d has empty group", i)
		}
		names = addLabel(ids, names, g)
	}
	numberLabels(ids, names)
	assign := make([]int, len(groups))
	for i, g := range groups {
		assign[i] = ids[g]
	}
	gr, err := fairness.NewGroups(assign, len(names))
	if err != nil {
		return nil, nil, err
	}
	cons, err := fairness.Proportional(gr, tol)
	if err != nil {
		return nil, nil, err
	}
	return gr, cons, nil
}

// addLabel records one occurrence of a group label: the first time it
// sees the label it enters it in ids and appends it to names, which it
// returns. numberLabels then assigns the ids.
func addLabel(ids map[string]int, names []string, name string) []string {
	if _, ok := ids[name]; !ok {
		ids[name] = 0
		names = append(names, name)
	}
	return names
}

// numberLabels sorts the distinct labels addLabel collected and numbers
// them 0, 1, … in that order, so equal label sets get equal ids
// whatever order the candidates arrive in.
func numberLabels(ids map[string]int, names []string) {
	sort.Strings(names)
	for i, name := range names {
		ids[name] = i
	}
}

// membershipRows lifts each candidate's group information into a
// probability row over the groups numbered in ids: its stated
// Membership, or one-hot at its Group when it states none.
func membershipRows(candidates []Candidate, ids map[string]int, groups int) (*fairness.ProbGroups, error) {
	dist := make([][]float64, len(candidates))
	for i, c := range candidates {
		row := make([]float64, groups)
		if c.Membership == nil {
			row[ids[c.Group]] = 1
		} else {
			for name, p := range c.Membership {
				row[ids[name]] = p
			}
		}
		dist[i] = row
	}
	return fairness.NewProbGroups(dist, groups)
}
