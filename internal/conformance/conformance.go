// Package conformance statistically verifies that every registered
// fairrank algorithm×noise pair lives up to its registry metadata: the
// paper's distributional guarantees (P-fairness rates and bounded NDCG
// loss, asserted with bootstrap confidence intervals over many draws),
// Kendall-tau concentration around the central ranking with its θ = 0
// uniform limit, determinism-flag honesty, and seed reproducibility.
//
// The suite is registry-driven: Run enumerates fairrank.Algorithms()
// crossed with fairrank.Noises(), honoring each entry's capability
// flags (Sampling/BestOf/pinned Noise, group bounds), so a newly
// registered strategy or mechanism is verified with no suite edit — and
// a registration whose behavior does not match its advertised metadata
// fails with a machine-readable, reproducible violation report.
//
// Measurement protocol (the same one the built-in Guarantees floors
// were calibrated under): dispersion θ = 1, default samples and
// tolerance, the fair central ranking for sampling algorithms (the
// paper's robustness setting — noise around an ex-ante fair ranking)
// and the weakly fair central otherwise, fairness audited over the
// top-min(AuditTopK, n) prefix of the full ranking. Sweeps request full
// rankings — quality and concentration are whole-ranking guarantees, and
// a TopK request would scope the engine's selection and diagnostics to
// the delivered prefix (fairrank.Diagnostics) — and the suite computes
// the prefix fairness audit itself via fairrank.PPfairTopK. All sampling
// goes through fairrank.(*Ranker).Sample, so a sweep builds each ranking
// instance once and every flagged draw is replayable in isolation via
// fairrank.SampleSeed.
package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	fairrank "repro"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Config parameterizes Run. The zero value runs the full registry over
// the built-in "conformance" scenario corpus with the defaults below.
type Config struct {
	// Draws is the rankings sampled per pair×scenario sweep (default
	// 200). Reduce it (e.g. in CI) for speed at the cost of wider
	// confidence intervals.
	Draws int
	// DetDraws is the sweep length for algorithms whose registry entry
	// claims determinism — their draws are identical, so a long sweep
	// proves nothing more than a short one (default 4).
	DetDraws int
	// Seeds is the number of distinct seeds the determinism-honesty
	// check compares (default 5).
	Seeds int
	// Confidence is the bootstrap confidence level of the interval
	// checks (default 0.99). A floor is violated only when the whole
	// interval sits below it, so higher confidence means fewer false
	// alarms and strictly less power.
	Confidence float64
	// Resamples is the bootstrap resample count (default 500).
	Resamples int
	// AuditTopK is the prefix length the fairness audit covers,
	// clamped per scenario to the pool size (default 10 — the weak-k
	// fairness horizon the central rankings are built for).
	AuditTopK int
	// Seed derives every sweep's seeds; equal configs produce equal
	// reports (default 1).
	Seed int64
	// Scenarios is the workload suite (default the built-in
	// "conformance" corpus).
	Scenarios []scenario.Spec
	// Algorithms restricts the run to the given entries; nil enumerates
	// the full registry at call time, skipping names with the "test:"
	// prefix (the convention for throwaway strategies registered by
	// negative tests, which are verified by explicit Config only).
	Algorithms []fairrank.AlgorithmInfo
}

func (c Config) withDefaults() Config {
	if c.Draws <= 0 {
		c.Draws = 200
	}
	if c.DetDraws <= 0 {
		c.DetDraws = 4
	}
	if c.Seeds <= 0 {
		c.Seeds = 5
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.99
	}
	if c.Resamples <= 0 {
		c.Resamples = 500
	}
	if c.AuditTopK <= 0 {
		c.AuditTopK = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// testPrefix marks registry names the registry-derived enumeration
// skips: throwaway entries registered by negative tests. The registry
// has no unregister, so without the convention one deliberately broken
// test strategy would fail every later registry-derived run in the
// process.
const testPrefix = "test:"

// Run executes the conformance suite and returns its report. An error
// means the run itself could not be set up (bad config, an ungenerable
// scenario, a cancelled context); behavioral failures of the verified
// algorithms are never errors — they are Violations in the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Scenarios) == 0 {
		specs, err := scenario.Corpus("conformance")
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
		return nil, fmt.Errorf("conformance: no algorithms to verify")
	}
	pools := make(map[string][]fairrank.Candidate, len(cfg.Scenarios))
	for _, spec := range cfg.Scenarios {
		pool, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("conformance: %w", err)
		}
		pools[spec.Name] = pool
	}
	rep := &Report{
		Draws:      cfg.Draws,
		Confidence: cfg.Confidence,
		AuditTopK:  cfg.AuditTopK,
		Seed:       cfg.Seed,
	}
	noises := fairrank.Noises()
	for _, info := range algos {
		for _, noise := range pairNoises(info, noises) {
			pair := PairReport{Algorithm: info.Name, Noise: noise.pair}
			for _, spec := range cfg.Scenarios {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if skipScenario(info, spec) {
					continue
				}
				sr := evalPair(ctx, cfg, info, noise, spec, pools[spec.Name])
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				pair.Scenarios = append(pair.Scenarios, sr)
				rep.Violations = append(rep.Violations, sr.Violations...)
			}
			rep.Pairs = append(rep.Pairs, pair)
		}
	}
	sortViolations(rep.Violations)
	return rep, nil
}

// pairNoise is one noise axis of an algorithm: request is the override
// sent per request (empty when the algorithm pins its own mechanism or
// draws nothing), pair the name the report carries.
type pairNoise struct {
	request string
	pair    string
}

// pairNoises derives an algorithm's noise axes from its capability
// flags: every noise mechanism for sampling entries with a free noise
// axis, the pinned mechanism alone for pinned entries, and a single
// empty axis for algorithms that draw nothing.
func pairNoises(info fairrank.AlgorithmInfo, noises []fairrank.NoiseInfo) []pairNoise {
	if !info.Sampling {
		return []pairNoise{{}}
	}
	if info.Noise != "" {
		return []pairNoise{{pair: string(info.Noise)}}
	}
	out := make([]pairNoise, len(noises))
	for i, n := range noises {
		out[i] = pairNoise{request: n.Name, pair: n.Name}
	}
	return out
}

// skipScenario honors the algorithm's registry group bounds, exactly as
// the engine enforces them before dispatch.
func skipScenario(info fairrank.AlgorithmInfo, spec scenario.Spec) bool {
	if info.MinGroups > 0 && spec.Groups < info.MinGroups {
		return true
	}
	if info.MaxGroups > 0 && spec.Groups > info.MaxGroups {
		return true
	}
	return false
}

// sweep is one Sample pass: the per-draw measurements the checks
// judge, plus the first per-draw check violation (if any).
type sweep struct {
	ids    [][]string // ranking ID sequences, per draw
	ppfair []float64
	ndcg   []float64
	kt     []float64
	seeds  []int64 // Diagnostics.Seed per draw, for reproduction hints

	checkViolation *Violation
}

// evalPair measures one algorithm×noise pair on one scenario and runs
// every applicable check.
func evalPair(ctx context.Context, cfg Config, info fairrank.AlgorithmInfo, noise pairNoise, spec scenario.Spec, pool []fairrank.Candidate) ScenarioReport {
	sr := ScenarioReport{Scenario: spec.Name, N: spec.N, Groups: spec.Groups}
	violate := func(v Violation) {
		v.Algorithm = info.Name
		v.Noise = noise.pair
		v.Scenario = spec.Name
		sr.Violations = append(sr.Violations, v)
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
		return sr
	}
	draws := cfg.Draws
	if info.Deterministic {
		draws = cfg.DetDraws
	}
	sr.Draws = draws
	baseSeed := pairSeed(cfg.Seed, info.Name, noise.pair, spec.Name)
	auditK := cfg.AuditTopK
	if auditK > spec.N {
		auditK = spec.N
	}
	theta := 1.0
	baseReq := fairrank.Request{
		Candidates: pool,
		Theta:      &theta,
		Noise:      fairrank.Noise(noise.request),
		Seed:       &baseSeed,
	}

	// Base sweep: the θ = 1 protocol run behind the floor, concentration,
	// validity, and reproducibility checks.
	base, err := runSweep(ctx, ranker, baseReq, draws, auditK, func(i int, res *fairrank.Result) *Violation {
		return checkDraw(info, noise, pool, res)
	})
	if err != nil {
		violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf(
			"θ=1 sweep failed: %v (replay: scenario %q, Request.Seed = fairrank.SampleSeed(%d, failing draw))",
			err, spec.Name, baseSeed)})
		return sr
	}
	if base.checkViolation != nil {
		violate(*base.checkViolation)
	}

	// Seed reproducibility: the same sweep prefix again, expecting the
	// identical ranking sequence.
	reproDraws := min(draws, 5)
	repro, err := runSweep(ctx, ranker, baseReq, reproDraws, auditK, nil)
	if err != nil {
		violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf("reproducibility sweep failed: %v", err)})
		return sr
	}
	for i := 0; i < reproDraws; i++ {
		if !equalIDs(base.ids[i], repro.ids[i]) {
			violate(Violation{Check: CheckSeedReproducibility, Detail: fmt.Sprintf(
				"draw %d (seed %d) differed between two identical sweeps — the algorithm draws entropy outside the engine RNG; audit its Rank for global state (time, package-level rand)",
				i, base.seeds[i])})
			break
		}
	}

	checkDeterminismFlag(ctx, cfg, info, noise, ranker, pool, auditK, baseSeed, violate)

	// Floor checks: a violation requires the whole confidence interval
	// below the advertised floor, so sampling noise cannot trip it.
	rng := rand.New(rand.NewSource(baseSeed))
	sr.MeanPPfair = mustCI(base.ppfair, cfg, rng)
	sr.MeanNDCG = mustCI(base.ndcg, cfg, rng)
	if g := info.Guarantees.MinMeanPPfair; g > 0 && sr.MeanPPfair.Hi < g {
		ci := sr.MeanPPfair
		violate(Violation{Check: CheckPPfairFloor, Observed: ci.Point, Bound: g, CI: &ci, Detail: fmt.Sprintf(
			"mean PPfair over the top-%d prefix is %.2f (%v%% CI [%.2f, %.2f]), below the advertised floor %.2f — the algorithm does not deliver its registered fairness guarantee on this workload; lower AlgorithmInfo.Guarantees.MinMeanPPfair or fix the strategy",
			auditK, ci.Point, cfg.Confidence*100, ci.Lo, ci.Hi, g)})
	}
	if g := info.Guarantees.MinMeanNDCG; g > 0 && sr.MeanNDCG.Hi < g {
		ci := sr.MeanNDCG
		violate(Violation{Check: CheckNDCGFloor, Observed: ci.Point, Bound: g, CI: &ci, Detail: fmt.Sprintf(
			"mean NDCG is %.4f (%v%% CI [%.4f, %.4f]), below the advertised floor %.4f — quality loss exceeds the registered bound; lower AlgorithmInfo.Guarantees.MinMeanNDCG or fix the strategy",
			ci.Point, cfg.Confidence*100, ci.Lo, ci.Hi, g)})
	}

	if info.Sampling {
		checkNoiseShape(ctx, cfg, &sr, ranker, baseReq, base.kt, spec, draws, baseSeed, rng, violate)
	}
	return sr
}

// checkDraw validates one draw's result against the pool and the
// registry metadata.
func checkDraw(info fairrank.AlgorithmInfo, noise pairNoise, pool []fairrank.Candidate, res *fairrank.Result) *Violation {
	if len(res.Ranking) != len(pool) {
		return &Violation{Check: CheckValidity, Detail: fmt.Sprintf(
			"seed %d returned %d candidates, want the full pool of %d", res.Diagnostics.Seed, len(res.Ranking), len(pool))}
	}
	inPool := make(map[string]bool, len(pool))
	for _, c := range pool {
		inPool[c.ID] = true
	}
	seen := make(map[string]bool, len(res.Ranking))
	for _, c := range res.Ranking {
		if !inPool[c.ID] || seen[c.ID] {
			return &Violation{Check: CheckValidity, Detail: fmt.Sprintf(
				"seed %d: ranking entry %q is duplicated or not from the pool", res.Diagnostics.Seed, c.ID)}
		}
		seen[c.ID] = true
	}
	d := res.Diagnostics
	if info.Sampling && string(d.Noise) != noise.pair {
		return &Violation{Check: CheckValidity, Detail: fmt.Sprintf(
			"diagnostics report noise %q, want %q — the engine did not draw from the pair's mechanism", d.Noise, noise.pair)}
	}
	if !info.Sampling && d.DrawsEvaluated != 0 {
		return &Violation{Check: CheckValidity, Detail: fmt.Sprintf(
			"non-sampling algorithm reports %d noise draws, want 0", d.DrawsEvaluated)}
	}
	return nil
}

// runSweep samples draws full rankings through the multi-draw hook,
// collecting the per-draw measurements — full-ranking NDCG and central
// Kendall tau from the engine diagnostics, plus the top-auditK fairness
// audit recomputed over each full ranking (the engine's own audit is
// scoped to the delivered prefix, which a full-ranking sweep wants
// re-derived at the audit horizon). check (optional) may return a
// violation per draw, recorded once (the first) to keep reports short.
func runSweep(ctx context.Context, ranker *fairrank.Ranker, req fairrank.Request, draws, auditK int, check func(int, *fairrank.Result) *Violation) (*sweep, error) {
	out := &sweep{}
	err := ranker.Sample(ctx, req, draws, func(i int, res *fairrank.Result) error {
		ids := make([]string, len(res.Ranking))
		for j, c := range res.Ranking {
			ids[j] = c.ID
		}
		d := res.Diagnostics
		k := min(auditK, len(res.Ranking))
		pp, err := fairrank.PPfairTopK(res.Ranking, k, d.Tolerance)
		if err != nil {
			return fmt.Errorf("conformance: top-%d audit of draw %d: %w", k, i, err)
		}
		out.ids = append(out.ids, ids)
		out.ppfair = append(out.ppfair, pp)
		out.ndcg = append(out.ndcg, d.NDCG)
		out.kt = append(out.kt, float64(d.CentralKendallTau))
		out.seeds = append(out.seeds, d.Seed)
		if check != nil && out.checkViolation == nil {
			out.checkViolation = check(i, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkDeterminismFlag verifies the registry's Deterministic flag both
// ways: a deterministic entry must be seed-invariant; a randomized one
// must actually vary. The variation probe forces the uniform single-draw
// regime (θ = 0, samples = 1) on sampling algorithms, where a collision
// across distinct seeds is astronomically unlikely, so a "never varies"
// finding means the flag (or the mechanism) is wrong.
func checkDeterminismFlag(ctx context.Context, cfg Config, info fairrank.AlgorithmInfo, noise pairNoise, ranker *fairrank.Ranker, pool []fairrank.Candidate, auditK int, baseSeed int64, violate func(Violation)) {
	// The probe must draw from the pair's mechanism, not the ranker's
	// default, or a defective noise would pass vacuously.
	// Full rankings: seed variation anywhere in the ranking counts.
	req := fairrank.Request{Candidates: pool, Noise: fairrank.Noise(noise.request)}
	if info.Sampling {
		zero, one := 0.0, 1
		if !info.Deterministic {
			req.Theta = &zero
			req.Samples = &one
		}
	}
	distinct := map[string]int64{}
	for s := 0; s < cfg.Seeds; s++ {
		seed := fairrank.SampleSeed(baseSeed+1, s)
		req.Seed = &seed
		res, err := ranker.Do(ctx, req)
		if err != nil {
			violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf("determinism probe (seed %d): %v", seed, err)})
			return
		}
		distinct[fmt.Sprint(idsOf(res))] = seed
	}
	if info.Deterministic && len(distinct) > 1 {
		violate(Violation{Check: CheckDeterminismFlag, Observed: float64(len(distinct)), Bound: 1, Detail: fmt.Sprintf(
			"registry claims Deterministic, but %d distinct rankings appeared across %d seeds — unset AlgorithmInfo.Deterministic or remove the seed dependence",
			len(distinct), cfg.Seeds)})
	}
	if !info.Deterministic && len(distinct) == 1 {
		violate(Violation{Check: CheckDeterminismFlag, Observed: 1, Bound: 2, Detail: fmt.Sprintf(
			"registry claims a randomized algorithm, but %d seeds produced one identical ranking (probed at θ=0, samples=1 for sampling entries) — set AlgorithmInfo.Deterministic or fix the mechanism's seed plumbing",
			cfg.Seeds)})
	}
}

// checkNoiseShape runs the two distribution-shape checks of the
// sampling family: Kendall-tau concentration at θ = 1 and the uniform
// limit at θ = 0.
func checkNoiseShape(ctx context.Context, cfg Config, sr *ScenarioReport, ranker *fairrank.Ranker, baseReq fairrank.Request, baseKT []float64, spec scenario.Spec, draws int, baseSeed int64, rng *rand.Rand, violate func(Violation)) {
	n := float64(spec.N)
	uniformMean := n * (n - 1) / 4
	sr.UniformMeanKT = uniformMean

	// Concentration judges the base sweep's already-collected KT series.
	ktCI := mustCI(baseKT, cfg, rng)
	sr.MeanCentralKT = &ktCI
	if ktCI.Lo > uniformMean/2 {
		violate(Violation{Check: CheckKTConcentration, Observed: ktCI.Point, Bound: uniformMean / 2, CI: &ktCI, Detail: fmt.Sprintf(
			"mean Kendall tau to the central at θ=1 is %.1f (CI [%.1f, %.1f]), confidently above half the uniform expectation %.1f — the mechanism is not concentrating around the central ranking",
			ktCI.Point, ktCI.Lo, ktCI.Hi, uniformMean/2)})
	}

	// Uniform limit: θ = 0 single draws must look uniform over
	// permutations.
	zero := 0.0
	one := 1
	uniformSeed := baseSeed + 2
	req := baseReq
	req.Theta = &zero
	req.Samples = &one
	req.Seed = &uniformSeed
	uni, err := runSweep(ctx, ranker, req, draws, spec.N, nil)
	if err != nil {
		violate(Violation{Check: CheckDrawError, Detail: fmt.Sprintf("θ=0 uniform-limit sweep failed: %v", err)})
		return
	}
	mean, v := uniformLimit(uni.kt, spec.N)
	sr.UniformLimitKT = mean
	if v != nil {
		violate(*v)
	}
}

// uniformLimit judges the θ = 0 uniform limit from the Kendall tau
// distances to the central of a sweep of single draws over n items, and
// returns their mean. The mean KT of a uniform permutation is n(n−1)/4
// with variance n(n−1)(2n+5)/72; six standard errors of slack makes a
// false alarm negligible while still catching any mechanism whose θ = 0
// is not uniform (e.g. a constant or biased sampler).
func uniformLimit(kt []float64, n int) (float64, *Violation) {
	nf := float64(n)
	uniformMean := nf * (nf - 1) / 4
	mean := stats.Mean(kt)
	sd := math.Sqrt(nf * (nf - 1) * (2*nf + 5) / 72)
	margin := 6*sd/math.Sqrt(float64(len(kt))) + 0.5
	if diff := math.Abs(mean - uniformMean); diff <= margin {
		return mean, nil
	}
	return mean, &Violation{Check: CheckUniformLimit, Observed: mean, Bound: uniformMean, Detail: fmt.Sprintf(
		"mean Kendall tau to the central at θ=0 over %d draws is %.1f, but a uniform mechanism gives %.1f ± %.1f — θ=0 must mean uniform; check the zero-dispersion branch of the mechanism's kernel and reference sampler (internal/core Axes)",
		len(kt), mean, uniformMean, margin)}
}

// mustCI bootstraps the mean CI; the inputs are non-empty by
// construction, so errors cannot occur outside programmer error.
func mustCI(xs []float64, cfg Config, rng *rand.Rand) stats.Interval {
	ci, err := stats.BootstrapMean(xs, cfg.Resamples, cfg.Confidence, rng)
	if err != nil {
		panic(fmt.Sprintf("conformance: bootstrap: %v", err))
	}
	return ci
}

// pairSeed derives a stable per-(pair, scenario) seed from the master
// seed, so adding a pair or scenario does not shift every other sweep.
func pairSeed(master int64, algorithm, noise, spec string) int64 {
	h := uint64(master) * 0x9e3779b97f4a7c15
	for _, s := range []string{algorithm, noise, spec} {
		for _, b := range []byte(s) {
			h = (h ^ uint64(b)) * 0x100000001b3
		}
	}
	return int64(h & 0x7fffffffffffffff)
}

func idsOf(res *fairrank.Result) []string {
	ids := make([]string, len(res.Ranking))
	for i, c := range res.Ranking {
		ids[i] = c.ID
	}
	return ids
}

func equalIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortViolations orders violations by (algorithm, noise, scenario,
// check) for stable reports.
func sortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		if a.Noise != b.Noise {
			return a.Noise < b.Noise
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		return a.Check < b.Check
	})
}
