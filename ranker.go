package fairrank

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/pl"
	"repro/internal/quality"
	"repro/internal/rankers"
)

// Ranker is a reusable fair-ranking engine: construct it once from a
// Config and call Do (or the legacy Rank) per request. It produces
// exactly the rankings the package-level Rank would (bit for bit, for
// equal seeds) while amortizing the work Rank re-derives on every call:
//
//   - Mallows insertion-probability tables, cached per (n, θ) — the
//     e^{−θ} and q^j evaluations behind every displacement draw;
//   - the DCG discount table behind the NDCG selection criterion, and
//     the per-request IDCG, computed once instead of once per sample;
//   - permutation scratch buffers, pooled per candidate-pool size so the
//     best-of-m sampling loop allocates nothing on the steady state;
//   - RNGs, pooled and re-seeded per request instead of re-allocated.
//
// A Ranker is safe for concurrent use by multiple goroutines; the caches
// are shared and lock-free on the hot path.
type Ranker struct {
	cfg Config
	// entry is the registry entry of cfg.Algorithm, captured at
	// construction: a Ranker's algorithm is fixed, so requests never
	// touch the global registry (its lock included) on the hot path.
	entry     algorithmEntry
	states    sync.Map   // sizeKey → *sizeState
	stateMu   sync.Mutex // serializes insert/evict; Load stays lock-free
	numStates atomic.Int32
	discMu    sync.Mutex // serializes discount insert/evict
	discounts sync.Map   // n → []float64
	numDiscs  atomic.Int32
	rngs      sync.Pool

	// Lightweight per-call counters behind Stats: serving layers read
	// them for observability without a second pass over the work done.
	statRequests       atomic.Int64
	statDraws          atomic.Int64
	statDrawsFull      atomic.Int64
	statDrawsTruncated atomic.Int64
	statTableHits      atomic.Int64
	statTableMisses    atomic.Int64
	// truncDraws splits statDrawsTruncated by noise axis: one counter
	// per kernel, created in NewRanker. The map never changes after
	// that, so it is read without a lock.
	truncDraws map[Noise]*atomic.Int64

	// forceFullDraws routes every noise axis through the registry
	// adapter, the full-length reference draw path. Test-only: the
	// equivalence suite uses it to check the kernels against the
	// registered samplers bit for bit.
	forceFullDraws bool
}

// RankerStats is a point-in-time snapshot of a Ranker's cumulative
// counters, for metrics endpoints and capacity planning. Counters only
// ever grow; two snapshots subtract into a rate.
type RankerStats struct {
	// Requests counts calls that reached ranking (Do, DoParallel, and
	// the legacy wrappers), successful or not.
	Requests int64
	// Draws counts noise permutations drawn and scored across all
	// requests (0 for deterministic algorithms).
	Draws int64
	// DrawsFull and DrawsTruncated split Draws by draw path: full-length
	// permutations versus lazy top-k prefixes from the truncated
	// samplers (Mallows bounded-window, generalized-Mallows bounded-
	// window, Plackett–Luce Gumbel top-k). DrawsFull + DrawsTruncated
	// == Draws.
	DrawsFull      int64
	DrawsTruncated int64
	// DrawsTruncatedByNoise splits DrawsTruncated by the noise mechanism
	// the draws came from ("mallows", "gmallows", "plackett-luce").
	// Nil until the first truncated draw; axes sum to DrawsTruncated.
	DrawsTruncatedByNoise map[string]int64
	// TableHits and TableMisses count lookups of the amortized
	// per-(n, θ) size-state cache: a miss paid the state build (each
	// noise axis's displacement tables are then built lazily within the
	// entry, once per axis).
	TableHits   int64
	TableMisses int64
	// PoolGets and PoolMisses count scratch-permutation checkouts across
	// the live per-(n, θ) pools and how many of those had to allocate.
	// Counts carried by evicted size-states drop out of the snapshot, so
	// these can regress across evictions — read them as a reuse-rate
	// signal, not an exact ledger.
	PoolGets   int64
	PoolMisses int64
}

// Stats snapshots the Ranker's cumulative counters. Safe for concurrent
// use; the counters are updated atomically on the serving path.
func (r *Ranker) Stats() RankerStats {
	s := RankerStats{
		Requests:       r.statRequests.Load(),
		Draws:          r.statDraws.Load(),
		DrawsFull:      r.statDrawsFull.Load(),
		DrawsTruncated: r.statDrawsTruncated.Load(),
		TableHits:      r.statTableHits.Load(),
		TableMisses:    r.statTableMisses.Load(),
	}
	r.states.Range(func(_, v any) bool {
		gets, misses := v.(*sizeState).scratch.Stats()
		s.PoolGets += int64(gets)
		s.PoolMisses += int64(misses)
		return true
	})
	for noise, c := range r.truncDraws {
		if v := c.Load(); v != 0 {
			if s.DrawsTruncatedByNoise == nil {
				s.DrawsTruncatedByNoise = make(map[string]int64)
			}
			s.DrawsTruncatedByNoise[string(noise)] = v
		}
	}
	return s
}

// maxSizeStates caps the per-(n, θ) cache: a size-state costs O(n)
// memory, so an adversarial mix of pool sizes or per-request
// dispersions must not pin unbounded state. At the cap an arbitrary
// entry is evicted rather than refusing the new key — otherwise a
// burst of junk (n, θ) keys would permanently lock legitimate traffic
// out of the amortization.
const maxSizeStates = 64

// sizeKey indexes the amortized per-size state. Theta is part of the key
// so requests that override the dispersion (Request.Theta) share the
// cache instead of invalidating it.
type sizeKey struct {
	n     int
	theta float64
}

// sizeState is the draw-path state reusable across requests of one pool
// size and dispersion: the shared permutation scratch pool plus, per
// noise axis, lazily built displacement tables and sampler scratch. The
// axes build on first use — PL-only traffic never pays for Mallows
// tables and vice versa — and each builds at most once per state. The
// DCG discount table lives in its own n-keyed cache (discountsFor):
// every mechanism and criterion shares it, and registry-adapter traffic
// with varied θ must not evict warm tables it never samples from.
type sizeState struct {
	key     sizeKey
	scratch *perm.Pool
	// floats recycles *[]float64 scratch of capacity n+1 — Plackett–Luce
	// log-weight vectors and generalized-Mallows miss-threshold tables,
	// built once per request and shared read-only across its workers.
	floats sync.Pool
	// pls recycles *pl.Scratch (utilities, uniform blocks, top-k heap);
	// one per worker on the Plackett–Luce draw path.
	pls sync.Pool

	mallowsOnce sync.Once
	mallowsTab  *mallows.Tables
	mallowsErr  error

	gmOnce sync.Once
	gmTab  *mallows.GeneralizedTables
	gmErr  error
}

func newSizeState(key sizeKey) *sizeState {
	st := &sizeState{key: key, scratch: perm.NewPool(key.n)}
	st.floats.New = func() any {
		buf := make([]float64, key.n+1)
		return &buf
	}
	st.pls.New = func() any { return pl.NewScratch(key.n) }
	return st
}

// tables returns the fixed-θ Mallows displacement tables, building them
// on first use.
func (st *sizeState) tables() (*mallows.Tables, error) {
	st.mallowsOnce.Do(func() {
		st.mallowsTab, st.mallowsErr = mallows.NewTables(st.key.n, st.key.theta)
	})
	return st.mallowsTab, st.mallowsErr
}

// gtables returns the generalized-Mallows displacement tables for the
// built-in gmallows geometric-decay schedule θ·gmallowsDecay^j, building
// them on first use. The schedule expression matches the registry
// mechanism's exactly, so draws through the tables are bit-identical to
// the registered sampler's.
func (st *sizeState) gtables() (*mallows.GeneralizedTables, error) {
	st.gmOnce.Do(func() {
		thetas := make([]float64, st.key.n)
		for j := range thetas {
			thetas[j] = st.key.theta * math.Pow(gmallowsDecay, float64(j))
		}
		st.gmTab, st.gmErr = mallows.NewGeneralizedTables(thetas)
	})
	return st.gmTab, st.gmErr
}

// NewRanker validates cfg and returns a reusable Ranker. Field semantics
// and defaults are exactly Config's; cfg.Seed is only a fallback — each
// request carries its own seed (Request.Seed, or the seed argument of
// the legacy Rank).
func NewRanker(cfg Config) (*Ranker, error) {
	probe := cfg.withDefaults(1)
	entry, err := lookupEntry(probe.Algorithm)
	if err != nil {
		return nil, err
	}
	if entry.info.Sampling && entry.info.BestOf {
		switch probe.Criterion {
		case CriterionNDCG, CriterionKT:
		default:
			return nil, fmt.Errorf("fairrank: unknown criterion %q", probe.Criterion)
		}
	}
	if entry.factory != nil {
		// Let the factory validate the configuration now rather than on
		// the first request.
		if _, err := entry.factory(probe); err != nil {
			return nil, err
		}
	}
	if _, ok := LookupNoise(string(probe.Noise)); !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownNoise, probe.Noise)
	}
	switch probe.Central {
	case CentralWeaklyFair, CentralFairDCG, CentralScoreOrder:
	default:
		return nil, fmt.Errorf("fairrank: unknown central ranking %q", probe.Central)
	}
	if math.IsNaN(probe.Theta) || probe.Theta < 0 {
		return nil, fmt.Errorf("fairrank: dispersion θ = %v, want ≥ 0", probe.Theta)
	}
	if math.IsInf(probe.Theta, 1) {
		return nil, fmt.Errorf("fairrank: dispersion θ = %v, want finite", probe.Theta)
	}
	if probe.Samples < 1 {
		return nil, fmt.Errorf("fairrank: samples = %d, want ≥ 1", probe.Samples)
	}
	if math.IsNaN(cfg.Tolerance) || cfg.Tolerance < 0 {
		return nil, fmt.Errorf("fairrank: tolerance = %v, want ≥ 0", cfg.Tolerance)
	}
	if math.IsNaN(cfg.Sigma) || cfg.Sigma < 0 {
		return nil, fmt.Errorf("fairrank: constraint noise σ = %v, want ≥ 0", cfg.Sigma)
	}
	r := &Ranker{cfg: cfg, entry: entry, truncDraws: make(map[Noise]*atomic.Int64, len(kernels))}
	for noise := range kernels {
		r.truncDraws[noise] = new(atomic.Int64)
	}
	r.rngs.New = func() any { return rand.New(rand.NewSource(0)) }
	return r, nil
}

// Config returns the configuration the Ranker was built from.
func (r *Ranker) Config() Config { return r.cfg }

// Warm pre-builds the per-size caches for the given candidate-pool
// sizes, moving the one-time table construction off the first request.
// It prepares the kernel of the noise axis the Ranker's configuration
// resolves to (the algorithm's pinned mechanism, else Config.Noise) as a
// request of each size would; registered mechanisms without a kernel
// keep no per-size state, so there is nothing to warm for them.
func (r *Ranker) Warm(sizes ...int) error {
	for _, n := range sizes {
		cfg := r.cfg.withDefaults(n)
		noise := r.entry.info.Noise
		if noise == "" {
			noise = cfg.Noise
		}
		k, ok := kernels[noise]
		if !ok {
			continue
		}
		// An empty center builds the size-state's tables and skips the
		// per-request vectors, which depend on the central ranking.
		p, err := k(drawPlan{theta: cfg.Theta, st: r.state(n, cfg.Theta)})
		if err != nil {
			return err
		}
		p.release()
	}
	return nil
}

// Rank post-processes candidates into a fair ranking, best first. It is
// equivalent to Rank(candidates, cfg) with cfg.Seed = seed — identical
// output for identical input — but reuses the Ranker's caches. The input
// slice is not modified.
//
// Rank is the legacy entry point, kept as a thin wrapper over Do; it
// cannot express per-request overrides or cancellation. New code should
// call Do.
func (r *Ranker) Rank(candidates []Candidate, seed int64) ([]Candidate, error) {
	res, err := r.Do(context.Background(), Request{Candidates: candidates, Seed: &seed})
	if err != nil {
		return nil, err
	}
	return res.Ranking, nil
}

// RankParallel is Rank with the best-of-m Mallows draws fanned out over
// up to workers goroutines. The result is deterministic for equal seeds
// and does not depend on workers — draw i uses its own RNG seeded by a
// mix of (seed, i), and score ties break toward the lowest i — but the
// draws consume different random streams than Rank's single sequential
// stream, so for the same seed RankParallel and Rank return different
// (identically distributed) rankings. Algorithms without a sampling loop
// fall back to Rank.
//
// RankParallel is the legacy entry point, kept as a thin wrapper over
// DoParallel. New code should call DoParallel.
func (r *Ranker) RankParallel(candidates []Candidate, seed int64, workers int) ([]Candidate, error) {
	res, err := r.DoParallel(context.Background(), Request{Candidates: candidates, Seed: &seed}, workers)
	if err != nil {
		return nil, err
	}
	return res.Ranking, nil
}

// criterionAt returns a maker of sample-selection score functions
// scoped to the first k ranks — the prefix a TopK request delivers.
// Scorers accept both full-length draws and lazy top-k prefixes (any
// permutation with ≥ k entries) and score only the first k, so the
// truncated and reference draw paths select identical winners. At
// k = n the arithmetic is exactly core's NDCGCriterion/KTCriterion with
// the discount table cached and the IDCG hoisted out of the per-sample
// loop.
//
// The two-level shape exists for the parallel fan-out: the maker builds
// the shared read-only state (discounts, IDCG, center positions) once
// per request, then each worker mints its own scorer holding private
// scratch, keeping the per-draw path allocation-free without locks.
func (r *Ranker) criterionAt(cfg Config, in rankers.Instance, k int) (func() func(perm.Perm) (float64, error), error) {
	switch cfg.Criterion {
	case CriterionNDCG:
		discounts := r.discountsFor(len(in.Initial))
		// The normalizer is the ideal DCG of the whole pool at cutoff k —
		// the best any delivered prefix could score — so NDCG stays in
		// [0, 1] and ranks prefixes the way NDCG@k ranks rankings.
		idcg, err := quality.IDCG(in.Initial, in.Scores, k)
		if err != nil {
			return nil, err
		}
		scorer := func(p perm.Perm) (float64, error) {
			var dcg float64
			for rk, item := range p[:k] {
				dcg += in.Scores[item] * discounts[rk]
			}
			if idcg == 0 {
				return 1, nil
			}
			return dcg / idcg, nil
		}
		// NDCG scoring reads only shared immutable state; every worker
		// can use one scorer.
		return func() func(perm.Perm) (float64, error) { return scorer }, nil
	case CriterionKT:
		pos := in.Initial.Positions()
		return func() func(perm.Perm) (float64, error) {
			seq := make(perm.Perm, k)
			work := make([]int, k)
			buf := make([]int, k)
			return func(p perm.Perm) (float64, error) {
				// Inversions of the center-position sequence of the
				// prefix = Kendall tau pairs the prefix orders against
				// the center; at k = n this is exactly the full Kendall
				// tau distance rankdist.KendallTau returns, computed
				// through reusable scratch instead of per-draw slices.
				for i, item := range p[:k] {
					seq[i] = pos[item]
				}
				return -float64(seq.InversionCountScratch(work, buf)), nil
			}
		}, nil
	default:
		return nil, fmt.Errorf("fairrank: unknown criterion %q", cfg.Criterion)
	}
}

// state returns the cached per-(n, θ) draw-path state, creating it on
// first use; each noise axis's tables build lazily inside the entry. At
// maxSizeStates distinct keys an arbitrary existing entry is evicted to
// make room, keeping memory bounded while letting every key (re-)enter
// the cache.
func (r *Ranker) state(n int, theta float64) *sizeState {
	key := sizeKey{n: n, theta: theta}
	if v, ok := r.states.Load(key); ok {
		r.statTableHits.Add(1)
		return v.(*sizeState)
	}
	r.statTableMisses.Add(1)
	st := newSizeState(key)
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	if v, ok := r.states.Load(key); ok {
		// Another goroutine cached the key while we built; use theirs so
		// concurrent requests share one scratch pool.
		return v.(*sizeState)
	}
	if r.numStates.Load() >= maxSizeStates {
		r.states.Range(func(k, _ any) bool {
			r.states.Delete(k)
			r.numStates.Add(-1)
			return false // one eviction is enough
		})
	}
	r.states.Store(key, st)
	r.numStates.Add(1)
	return st
}

// discountsFor returns the cached DCG discount table of pool size n
// (rank r, 0-based, → discount of rank r+1), building it on first use.
// Keyed by n alone — all mechanisms, dispersions, and criteria share
// it — and bounded like the size-state cache.
func (r *Ranker) discountsFor(n int) []float64 {
	if v, ok := r.discounts.Load(n); ok {
		return v.([]float64)
	}
	disc := make([]float64, n)
	for rk := range disc {
		disc[rk] = quality.LogDiscount(rk + 1)
	}
	r.discMu.Lock()
	defer r.discMu.Unlock()
	if v, ok := r.discounts.Load(n); ok {
		return v.([]float64)
	}
	if r.numDiscs.Load() >= maxSizeStates {
		r.discounts.Range(func(k, _ any) bool {
			r.discounts.Delete(k)
			r.numDiscs.Add(-1)
			return false // one eviction is enough
		})
	}
	r.discounts.Store(n, disc)
	r.numDiscs.Add(1)
	return disc
}

// getRNG hands out a pooled RNG re-seeded for the request; equal seeds
// yield the exact stream of rand.New(rand.NewSource(seed)).
func (r *Ranker) getRNG(seed int64) *rand.Rand {
	rng := r.rngs.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// pickCandidates materializes the ranked candidate slice from a ranking
// over candidate indices.
func pickCandidates(candidates []Candidate, out perm.Perm) []Candidate {
	ranked := make([]Candidate, len(out))
	for rk, item := range out {
		ranked[rk] = candidates[item]
	}
	return ranked
}

// mixSeed derives the RNG seed of parallel draw i from the request seed
// (a splitmix64 step), decorrelating the per-draw streams.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
