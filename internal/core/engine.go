package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/quality"
)

// Engine is the state Algorithm 1 amortizes across requests:
//
//   - Mallows and generalized-Mallows displacement tables, cached per
//     (n, θ) — the e^{−θ} and q^j evaluations behind every displacement
//     draw;
//   - the DCG discount table behind the NDCG selection criterion,
//     cached with them;
//   - each draw loop's permutation buffers and sampler scratch, and
//     each request's float vector, pooled once for the whole Engine so
//     the best-of-m loop allocates nothing on the steady state whatever
//     the request's n and θ;
//   - RNGs, pooled and re-seeded per draw instead of re-allocated.
//
// The zero Engine is ready to use and safe for concurrent use by
// multiple goroutines; the caches are shared and lock-free on the hot
// path. An Engine must not be copied after first use.
type Engine struct {
	states    sync.Map   // sizeKey → *sizeState
	stateMu   sync.Mutex // serializes insert/evict; Load stays lock-free
	numStates atomic.Int32
	rngs      sync.Pool

	// workers recycles each draw loop's buffers and sampler scratch.
	workers pool[drawWorker]
	// vecs recycles float vectors — Plackett–Luce log-weights and
	// Mallows miss thresholds, built once per request and shared
	// read-only across its workers.
	vecs pool[[]float64]

	tableHits   atomic.Int64
	tableMisses atomic.Int64
}

// Stats is a snapshot of an Engine's cache counters; none of them ever
// decreases.
type Stats struct {
	// TableHits and TableMisses count lookups of the per-(n, θ)
	// size-state cache; a miss paid the state build.
	TableHits   int64
	TableMisses int64
	// PoolGets and PoolMisses count checkouts of pooled draw state —
	// one per draw loop (its permutation buffers and sampler scratch)
	// and one per request that needs a float vector (Plackett–Luce
	// log-weights, truncated Mallows miss thresholds) — and how many of
	// those had to allocate.
	PoolGets   int64
	PoolMisses int64
}

// Stats snapshots the Engine's counters. It reads the misses before the
// gets, so a snapshot never shows more misses than gets.
func (e *Engine) Stats() Stats {
	misses := e.workers.misses.Load() + e.vecs.misses.Load()
	return Stats{
		TableHits:   e.tableHits.Load(),
		TableMisses: e.tableMisses.Load(),
		PoolGets:    e.workers.gets.Load() + e.vecs.gets.Load(),
		PoolMisses:  misses,
	}
}

// maxSizeStates caps the per-(n, θ) cache: a size-state costs O(n)
// memory, so an adversarial mix of pool sizes or per-request
// dispersions must not pin unbounded state. At the cap an arbitrary
// entry is evicted rather than refusing the new key — otherwise a
// burst of junk (n, θ) keys would permanently lock legitimate traffic
// out of the amortization.
const maxSizeStates = 64

// sizeKey indexes the amortized per-size state. Theta is part of the key
// so requests that override the dispersion share the cache instead of
// invalidating it.
type sizeKey struct {
	n     int
	theta float64
}

// sizeState is the immutable draw-path state of one pool size and
// dispersion: the DCG discount table and, per noise axis, lazily built
// displacement tables. Each table builds on first use — PL-only traffic
// never pays for Mallows tables and vice versa, KT-only traffic never
// for discounts — and at most once per state.
type sizeState struct {
	key sizeKey

	mallowsOnce sync.Once
	mallowsTab  *mallows.GeneralizedTables
	mallowsErr  error

	gmOnce sync.Once
	gmTab  *mallows.GeneralizedTables
	gmErr  error

	discOnce sync.Once
	disc     []float64
}

// pool recycles one kind of draw-path state across an Engine's requests
// and counts its traffic: gets is every checkout, misses the checkouts
// that had to allocate. A miss rate stuck near 1 means the steady state
// is not steady; since the runtime may drop pooled values at any GC,
// misses can grow even under a disciplined get/put pattern.
type pool[T any] struct {
	p            sync.Pool
	gets, misses atomic.Int64
}

// get checks out a recycled value, or nil when there is none; the
// caller then builds what is missing and counts the miss.
func (p *pool[T]) get() *T {
	p.gets.Add(1)
	v, _ := p.p.Get().(*T)
	return v
}

func (p *pool[T]) put(v *T) { p.p.Put(v) }

// tables returns the Mallows axis's displacement tables, the constant
// schedule θ, building them on first use.
func (st *sizeState) tables() (*mallows.GeneralizedTables, error) {
	st.mallowsOnce.Do(func() {
		st.mallowsTab, st.mallowsErr = mallows.NewTables(st.key.n, st.key.theta)
	})
	return st.mallowsTab, st.mallowsErr
}

// gtables returns the generalized-Mallows displacement tables of the
// gmallows axis's schedule, building them on first use.
func (st *sizeState) gtables() (*mallows.GeneralizedTables, error) {
	st.gmOnce.Do(func() {
		st.gmTab, st.gmErr = mallows.NewGeneralizedTables(gmallowsThetas(st.key.n, st.key.theta))
	})
	return st.gmTab, st.gmErr
}

// discounts returns the DCG discount table (rank r, 0-based, → discount
// of rank r+1), building it on first use.
func (st *sizeState) discounts() []float64 {
	st.discOnce.Do(func() {
		st.disc = make([]float64, st.key.n)
		for rk := range st.disc {
			st.disc[rk] = quality.LogDiscount(rk + 1)
		}
	})
	return st.disc
}

// state returns the cached per-(n, θ) draw-path state, creating it on
// first use; each noise axis's tables build lazily inside the entry. At
// maxSizeStates distinct keys an arbitrary existing entry is evicted to
// make room, keeping memory bounded while letting every key (re-)enter
// the cache.
func (e *Engine) state(n int, theta float64) *sizeState {
	key := sizeKey{n: n, theta: theta}
	if v, ok := e.states.Load(key); ok {
		e.tableHits.Add(1)
		return v.(*sizeState)
	}
	e.tableMisses.Add(1)
	st := &sizeState{key: key}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if v, ok := e.states.Load(key); ok {
		// Another goroutine cached the key while we built; use theirs so
		// concurrent requests share one set of tables.
		return v.(*sizeState)
	}
	if e.numStates.Load() >= maxSizeStates {
		e.states.Range(func(k, _ any) bool {
			e.states.Delete(k)
			e.numStates.Add(-1)
			return false // one eviction is enough
		})
	}
	e.states.Store(key, st)
	e.numStates.Add(1)
	return st
}

// RNG hands out a pooled RNG seeded with MixSeed(seed, 0), the stream
// of Best's draw 0, for a caller that takes all of a request's
// randomness from one stream. Return it with PutRNG.
func (e *Engine) RNG(seed int64) *rand.Rand {
	rng := e.rng()
	rng.Seed(MixSeed(seed, 0))
	return rng
}

// rng takes an RNG out of the pool in whatever state it was returned.
func (e *Engine) rng() *rand.Rand {
	if rng, ok := e.rngs.Get().(*rand.Rand); ok {
		return rng
	}
	return rand.New(rand.NewSource(0))
}

// PutRNG returns an RNG from RNG to the pool.
func (e *Engine) PutRNG(rng *rand.Rand) { e.rngs.Put(rng) }

// Plan prepares one request's draws around center at dispersion theta
// through axis's kernel: a truncated plan when topK < len(center),
// whose draws materialize only the top-topK prefix. Release the plan
// when its draws are done.
func (e *Engine) Plan(axis Noise, center perm.Perm, theta float64, topK int) (Plan, error) {
	a, ok := Axes[axis]
	if !ok {
		return Plan{}, fmt.Errorf("core: unknown noise %q", axis)
	}
	return a.kernel(Plan{
		center:    center,
		theta:     theta,
		topK:      topK,
		truncated: topK < len(center),
		eng:       e,
		st:        e.state(len(center), theta),
	})
}

// criterion returns a maker of sample-selection score functions scoped
// to the first k ranks of plan p — the prefix a truncated request
// delivers. Scorers accept both full-length draws and lazy top-k
// prefixes (any permutation with ≥ k entries) and score only the first
// k, so a truncated draw scores exactly what its full-length reference
// draw would. At k = n the NDCG scorer is quality.NDCG and the KT scorer
// minus rankdist.KendallTau against the center, with the discount table
// cached and the IDCG hoisted out of the per-sample loop.
//
// The two-level shape exists for the parallel fan-out: the maker builds
// the shared read-only state (discounts, IDCG, center positions) once
// per request, then each worker mints its own scorer holding private
// scratch, keeping the per-draw path allocation-free without locks.
func (p *Plan) criterion(crit Criterion, scores quality.Scores) (func() func(perm.Perm) float64, error) {
	center, k := p.center, p.topK
	switch crit {
	case SelectNDCG:
		discounts := p.st.discounts()
		// The normalizer is the ideal DCG of the whole pool at cutoff k —
		// the best any delivered prefix could score — so NDCG stays in
		// [0, 1] and ranks prefixes the way NDCG@k ranks rankings.
		idcg, err := quality.IDCG(center, scores, k)
		if err != nil {
			return nil, err
		}
		scorer := func(d perm.Perm) float64 {
			var dcg float64
			for rk, item := range d[:k] {
				dcg += scores[item] * discounts[rk]
			}
			if idcg == 0 {
				return 1
			}
			return dcg / idcg
		}
		// NDCG scoring reads only shared immutable state; every worker
		// can use one scorer.
		return func() func(perm.Perm) float64 { return scorer }, nil
	case SelectKT:
		pos := center.Positions()
		return func() func(perm.Perm) float64 {
			seq := make(perm.Perm, k)
			work := make([]int, k)
			buf := make([]int, k)
			return func(d perm.Perm) float64 {
				// Inversions of the center-position sequence of the
				// prefix = Kendall tau pairs the prefix orders against
				// the center; at k = n this is exactly the full Kendall
				// tau distance, computed through reusable scratch
				// instead of per-draw slices.
				for i, item := range d[:k] {
					seq[i] = pos[item]
				}
				return -float64(seq.InversionCountScratch(work, buf))
			}
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown criterion %d", crit)
	}
}

// bestOf is Algorithm 1's draw–score–keep loop over draws [lo, hi) of
// plan p, on a pooled RNG and a checked-out worker's buffers and sampler
// scratch, checking ctx before every draw. Draw i comes from the RNG
// reseeded with MixSeed(seed, i). It returns a copy of the draw that
// score rates highest, the earlier one on ties, and its score; a nil
// score keeps the first draw with score 0.
func (e *Engine) bestOf(ctx context.Context, p Plan, score func(perm.Perm) float64, seed int64, lo, hi int) (perm.Perm, float64, error) {
	rng := e.rng()
	defer e.PutRNG(rng)
	w := p.checkout()
	defer p.checkin(w)
	var bestScore float64
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		rng.Seed(MixSeed(seed, i))
		w.cur = p.draw(p, w.plScratch, w.cur, rng)
		var v float64
		if score != nil {
			v = score(w.cur)
		}
		if i == lo || v > bestScore {
			// Swap rather than copy: cur becomes the kept draw, best
			// becomes the scratch the next draw overwrites.
			w.best, w.cur = w.cur, w.best
			bestScore = v
		}
	}
	return w.best.Clone(), bestScore, nil
}

// Best runs the best-of-m loop of Algorithm 1 for plan p: it draws
// samples rankings and keeps the one crit scores highest (ties keep the
// earlier), scoring NDCG against scores. SelectFirst draws once. Draw i
// comes from its own RNG stream seeded with MixSeed(seed, i), so the
// result depends only on seed, never on workers: up to workers
// goroutines each run the loop over a contiguous chunk of draws on
// their own buffers and sampler scratch, and at one worker the single
// chunk runs on the caller's goroutine. It returns the kept ranking —
// the top-k prefix on a truncated plan — and its score (0 under
// SelectFirst).
func (e *Engine) Best(ctx context.Context, p Plan, scores quality.Scores, crit Criterion, samples, workers int, seed int64) (perm.Perm, float64, error) {
	maker := func() func(perm.Perm) float64 { return nil }
	if crit == SelectFirst {
		// Algorithm 1 with m = 1: keep the first (only) draw.
		samples = 1
	} else {
		var err error
		if maker, err = p.criterion(crit, scores); err != nil {
			return nil, 0, err
		}
	}
	if workers = min(workers, samples); workers <= 1 {
		return e.bestOf(ctx, p, maker(), seed, 0, samples)
	}
	type result struct {
		score float64
		p     perm.Perm
		err   error
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Worker w owns draws [lo, hi).
		lo := w * samples / workers
		hi := (w + 1) * samples / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			c := &results[w]
			c.p, c.score, c.err = e.bestOf(ctx, p, maker(), seed, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	// The chunks are in draw order, so keeping the first maximum keeps
	// the lowest draw index among equal scores.
	winner := -1
	for w, c := range results {
		if c.err != nil {
			return nil, 0, c.err
		}
		if winner < 0 || c.score > results[winner].score {
			winner = w
		}
	}
	return results[winner].p, results[winner].score, nil
}

// MixSeed derives the RNG seed of draw i from the request seed (a
// splitmix64 step), decorrelating the per-draw streams: math/rand seeds
// its state from an LCG of the seed, so one stream position read across
// consecutive raw seeds is a lattice, not independent draws.
func MixSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
