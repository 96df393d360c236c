package fairrank

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perm"
)

// Ranker is a reusable fair-ranking engine: construct it once from a
// Config and call Do per request. It produces
// exactly the rankings the package-level Rank would (bit for bit, for
// equal seeds) while amortizing the work Rank re-derives on every call:
//
//   - Mallows insertion-probability tables, cached per (n, θ) — the
//     e^{−θ} and q^j evaluations behind every displacement draw;
//   - the DCG discount table behind the NDCG selection criterion, and
//     the per-request IDCG, computed once instead of once per sample;
//   - permutation scratch buffers, pooled across requests of every pool
//     size so the best-of-m sampling loop allocates nothing on the
//     steady state;
//   - RNGs, pooled and re-seeded per draw instead of re-allocated.
//
// A Ranker is safe for concurrent use by multiple goroutines; the caches
// are shared and lock-free on the hot path.
type Ranker struct {
	cfg Config
	// entry is the registry entry of cfg.Algorithm, captured at
	// construction, so requests that keep the configured algorithm
	// never touch the global registry (its lock included).
	entry algorithmEntry
	// eng holds the amortized draw state: the per-(n, θ) tables and DCG
	// discounts, the scratch pools and the pooled RNGs.
	eng core.Engine

	// Lightweight per-call counters behind Stats: serving layers read
	// them for observability without a second pass over the work done.
	// A draw adds to exactly one of statDrawsFull and truncDraws, and
	// Stats derives the totals from them, so no snapshot can tear.
	statRequests  atomic.Int64
	statDrawsFull atomic.Int64
	// truncDraws counts truncated draws per noise axis: one counter
	// per noise axis, created in NewRanker. The map never changes
	// after that, so it is read without a lock.
	truncDraws map[Noise]*atomic.Int64
}

// RankerStats is a point-in-time snapshot of a Ranker's cumulative
// counters, for metrics endpoints and capacity planning. Counters only
// ever grow; two snapshots subtract into a rate.
type RankerStats struct {
	// Requests counts calls that reached ranking (Do and DoParallel),
	// successful or not.
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
	// PoolGets and PoolMisses count checkouts of the engine's pools,
	// shared by requests of every (n, θ) — one draw worker (permutation
	// buffers and sampler scratch) per draw loop, one float vector per
	// request whose noise axis needs one — and how many of those had to
	// allocate, counting a pooled worker or vector too small for the
	// request's n as a miss. Every checkout is counted.
	PoolGets   int64
	PoolMisses int64
}

// Stats snapshots the Ranker's cumulative counters. Safe for concurrent
// use; the counters are updated atomically on the serving path.
func (r *Ranker) Stats() RankerStats {
	es := r.eng.Stats()
	s := RankerStats{
		Requests:    r.statRequests.Load(),
		DrawsFull:   r.statDrawsFull.Load(),
		TableHits:   es.TableHits,
		TableMisses: es.TableMisses,
		PoolGets:    es.PoolGets,
		PoolMisses:  es.PoolMisses,
	}
	for noise, c := range r.truncDraws {
		if v := c.Load(); v != 0 {
			if s.DrawsTruncatedByNoise == nil {
				s.DrawsTruncatedByNoise = make(map[string]int64)
			}
			s.DrawsTruncatedByNoise[string(noise)] = v
			s.DrawsTruncated += v
		}
	}
	s.Draws = s.DrawsFull + s.DrawsTruncated
	return s
}

// NewRanker validates cfg and returns a reusable Ranker. Field semantics
// and defaults are exactly Config's; cfg.Seed is only a fallback — each
// request carries its own seed (Request.Seed).
func NewRanker(cfg Config) (*Ranker, error) {
	// Every field is validated whatever the algorithm: a request may name
	// another algorithm that reads it.
	probe := cfg.withDefaults(1)
	entry, err := probe.validate(algorithmEntry{})
	if err != nil {
		return nil, err
	}
	if entry.factory != nil {
		// Let the factory validate the configuration now rather than on
		// the first request.
		if _, err := entry.factory(probe); err != nil {
			return nil, err
		}
	}
	r := &Ranker{cfg: cfg, entry: entry, truncDraws: make(map[Noise]*atomic.Int64, len(core.Axes))}
	for noise := range core.Axes {
		r.truncDraws[Noise(noise)] = new(atomic.Int64)
	}
	return r, nil
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
