package fairrank

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rankers"
)

// The registry errors. Lookup failures wrap the ErrUnknown* sentinels so
// callers (and the HTTP layer, which maps them to 400) can classify them
// with errors.Is regardless of the name baked into the message.
var (
	// ErrUnknownAlgorithm reports an algorithm name absent from the
	// registry.
	ErrUnknownAlgorithm = errors.New("fairrank: unknown algorithm")
	// ErrUnknownNoise reports a noise mechanism name absent from the
	// noise table (see Noises).
	ErrUnknownNoise = errors.New("fairrank: unknown noise")
	// ErrDuplicateAlgorithm reports a Register call reusing a name.
	ErrDuplicateAlgorithm = errors.New("fairrank: algorithm already registered")
)

// Instance is the assembled ranking problem handed to a Strategy: the
// central ranking, the scores, the group assignment derived from the
// candidates' Group strings (group ids are indexes into the sorted
// distinct group names), and the proportional prefix bounds widened by
// the resolved tolerance. It is a read-only view; accessors that return
// slices return copies.
type Instance struct {
	in rankers.Instance
}

// N returns the number of candidates.
func (it *Instance) N() int { return len(it.in.Initial) }

// Central returns the central ranking as candidate indices, best first.
// The indices refer to positions in the Request's Candidates slice.
func (it *Instance) Central() []int {
	return append([]int(nil), it.in.Initial...)
}

// Score returns the score of candidate i.
func (it *Instance) Score(i int) float64 { return it.in.Scores[i] }

// Group returns the group id of candidate i (0 ≤ id < NumGroups).
func (it *Instance) Group(i int) int { return it.in.Groups.Of(i) }

// NumGroups returns the number of distinct groups in the pool.
func (it *Instance) NumGroups() int { return it.in.Groups.NumGroups() }

// GroupSizes returns the number of candidates per group id.
func (it *Instance) GroupSizes() []int { return it.in.Groups.Sizes() }

// PrefixBounds returns the fairness bounds of the prefix of length k
// (1 ≤ k ≤ N): floor[g] and ceil[g] bound how many members of group g a
// fair ranking places in its first k positions.
func (it *Instance) PrefixBounds(k int) (floor, ceil []int) {
	return append([]int(nil), it.in.Bounds.Lower[k-1]...),
		append([]int(nil), it.in.Bounds.Upper[k-1]...)
}

// Strategy is a pluggable ranking algorithm: it post-processes an
// assembled Instance into a ranking, returned as a permutation of
// candidate indices, best first. The engine validates the returned
// permutation, so a defective Strategy surfaces as an error rather than
// a corrupted ranking.
//
// Implementations must be deterministic given the instance and the RNG
// stream, and safe for concurrent use (one Strategy value may serve many
// requests at once; per-request state belongs in Rank's locals). The
// stream is draw 0's of the request seed, the one the sampling
// algorithms' first draw uses.
type Strategy interface {
	Rank(in *Instance, rng *rand.Rand) ([]int, error)
}

// StrategyFunc adapts a plain function to the Strategy interface.
type StrategyFunc func(in *Instance, rng *rand.Rand) ([]int, error)

// Rank implements Strategy.
func (f StrategyFunc) Rank(in *Instance, rng *rand.Rand) ([]int, error) { return f(in, rng) }

// Factory builds the Strategy serving one resolved configuration. It is
// called once per NewRanker (to validate the configuration early) and
// once per request; it should be cheap and must not retain cfg-derived
// mutable state shared across requests.
type Factory func(cfg Config) (Strategy, error)

// AlgorithmInfo is the registry metadata of one algorithm: everything
// the serving catalog, the CLIs, and the engine's dispatch need to know
// about it. Name is the wire/config value; the rest is descriptive and
// drives validation and capability-aware dispatch.
type AlgorithmInfo struct {
	// Name is the value Config.Algorithm (and the HTTP "algorithm"
	// field) selects the algorithm by. Required, unique.
	Name string
	// Description summarizes the method and its source.
	Description string
	// AttributeBlind reports that the algorithm never reads the
	// protected attribute — the paper's robustness property.
	AttributeBlind bool
	// Deterministic reports that equal inputs yield equal rankings
	// regardless of the seed (the constraint-based algorithms are
	// deterministic at σ = 0; σ > 0 perturbs their constraints).
	Deterministic bool
	// SupportsSigma reports that the algorithm honors Config.Sigma
	// (Gaussian noise on its representation constraints).
	SupportsSigma bool
	// MinGroups and MaxGroups bound the group counts the algorithm can
	// rank; zero means unbounded on that side. The engine enforces them
	// before dispatch.
	MinGroups int
	MaxGroups int
	// Sampling marks the Algorithm-1 family: the engine runs its
	// amortized best-of-m noise loop (with cancellation between draws
	// and DoParallel fan-out) instead of calling a Strategy. Sampling
	// entries need no Factory.
	Sampling bool
	// BestOf reports that a Sampling algorithm honors Samples and
	// Criterion (best-of-m selection); false draws a single sample.
	BestOf bool
	// Noise pins a Sampling algorithm to one randomization mechanism;
	// empty honors Config.Noise and the per-request override.
	Noise Noise
	// Tunables lists the request fields the algorithm responds to, in
	// wire spelling ("theta", "samples", …); served verbatim by the
	// catalog so clients can introspect instead of hardcoding.
	Tunables []string
	// Guarantees declares the distributional properties the algorithm
	// advertises. The conformance kit (internal/conformance) asserts
	// them statistically — many draws over synthetic workloads, with
	// bootstrap confidence intervals — for every registered algorithm,
	// so a registration whose behavior does not live up to its metadata
	// fails verification instead of silently shipping. The zero value
	// advertises nothing beyond output validity.
	Guarantees Guarantees
}

// Guarantees are the statistically checkable promises of an algorithm's
// registry entry. Bounds are on means over many draws under the
// conformance measurement protocol: dispersion θ = 1, default samples
// and tolerance (0.1), the fair central ranking (CentralFairDCG) for
// sampling algorithms — the paper's robustness setting, noise around an
// ex-ante fair ranking — and the weakly fair central otherwise, with
// fairness audited over the top-min(10, n) prefix. The floors must hold
// on every workload of the conformance corpus, adversarial
// all-minority-at-bottom and heavily tied pools included: they are
// worst-covered-workload floors, not averages over friendly ones.
type Guarantees struct {
	// MinMeanPPfair lower-bounds the mean percentage of P-fair
	// positions (paper Definition 4) the algorithm achieves. 0 means no
	// fairness promise (baselines), skipping the check.
	MinMeanPPfair float64
	// MinMeanNDCG lower-bounds the mean NDCG of the produced rankings
	// against the score-ideal order — the paper's bounded-quality-loss
	// claim. 0 means no quality promise, skipping the check.
	MinMeanNDCG float64
}

// clone deep-copies the info so registry snapshots are immune to caller
// mutation of the Tunables slice.
func (a AlgorithmInfo) clone() AlgorithmInfo {
	a.Tunables = append([]string(nil), a.Tunables...)
	return a
}

// NoiseInfo is the catalog metadata of one randomization mechanism.
type NoiseInfo struct {
	// Name is the value Config.Noise (and the HTTP "noise" field)
	// selects the mechanism by.
	Name string
	// Description summarizes the distribution.
	Description string
}

type algorithmEntry struct {
	info    AlgorithmInfo
	factory Factory
}

var registry = struct {
	mu    sync.RWMutex
	algos map[string]algorithmEntry
}{algos: map[string]algorithmEntry{}}

// Register adds an algorithm to the registry, making it constructible
// by name through NewRanker/Rank, servable by internal/service and
// fairrankd, and visible in the GET /v1/algorithms catalog and the CLI
// usage text. Safe for concurrent use, including concurrently with
// Ranker.Do; a Ranker constructed before a registration serves the new
// algorithm to requests that name it in Request.Algorithm.
//
// Non-sampling algorithms require a factory. Sampling entries (the
// engine-managed best-of-m family) take no factory: their behavior is
// fully described by the metadata (BestOf, Noise).
func Register(info AlgorithmInfo, factory Factory) error {
	if info.Name == "" {
		return fmt.Errorf("fairrank: Register: empty algorithm name")
	}
	if !info.Sampling && factory == nil {
		return fmt.Errorf("fairrank: Register(%q): nil factory for a non-sampling algorithm", info.Name)
	}
	if info.Sampling && info.Noise != "" {
		if _, ok := LookupNoise(string(info.Noise)); !ok {
			return fmt.Errorf("%w %q (pinned by algorithm %q)", ErrUnknownNoise, info.Noise, info.Name)
		}
	}
	if info.MinGroups < 0 || info.MaxGroups < 0 || (info.MaxGroups > 0 && info.MinGroups > info.MaxGroups) {
		return fmt.Errorf("fairrank: Register(%q): invalid group bounds [%d, %d]", info.Name, info.MinGroups, info.MaxGroups)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.algos[info.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateAlgorithm, info.Name)
	}
	registry.algos[info.Name] = algorithmEntry{info: info.clone(), factory: factory}
	return nil
}

// MustRegister is Register, panicking on error; for package init blocks.
func MustRegister(info AlgorithmInfo, factory Factory) {
	if err := Register(info, factory); err != nil {
		panic(err)
	}
}

// Algorithms returns the metadata of every registered algorithm, sorted
// by name. The serving catalog, the CLI usage text, and the docs derive
// from this — it is the single source of truth for what is rankable.
func Algorithms() []AlgorithmInfo {
	registry.mu.RLock()
	out := make([]AlgorithmInfo, 0, len(registry.algos))
	for _, e := range registry.algos {
		out = append(out, e.info.clone())
	}
	registry.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupAlgorithm returns the metadata of one algorithm by name.
func LookupAlgorithm(name string) (AlgorithmInfo, bool) {
	registry.mu.RLock()
	e, ok := registry.algos[name]
	registry.mu.RUnlock()
	if !ok {
		return AlgorithmInfo{}, false
	}
	return e.info.clone(), true
}

// Noises returns the metadata of every noise mechanism, sorted by name.
// The mechanisms are the axes of the engine's noise table
// (internal/core's Axes), so the list is fixed for the process.
func Noises() []NoiseInfo {
	out := make([]NoiseInfo, 0, len(core.Axes))
	for name, a := range core.Axes {
		out = append(out, NoiseInfo{Name: string(name), Description: a.Description})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupNoise returns the metadata of one noise mechanism by name.
func LookupNoise(name string) (NoiseInfo, bool) {
	a, ok := core.Axes[core.Noise(name)]
	if !ok {
		return NoiseInfo{}, false
	}
	return NoiseInfo{Name: name, Description: a.Description}, true
}

// lookupEntry resolves an algorithm name to its registry entry for the
// engine's dispatch.
func lookupEntry(name Algorithm) (algorithmEntry, error) {
	registry.mu.RLock()
	e, ok := registry.algos[string(name)]
	registry.mu.RUnlock()
	if !ok {
		return algorithmEntry{}, fmt.Errorf("%w %q", ErrUnknownAlgorithm, name)
	}
	return e, nil
}

// checkGroups enforces the registry's group-count bounds before
// dispatch, so algorithms with structural requirements (GrBinaryIPF
// needs exactly two groups) fail with a uniform, catalog-explained
// error.
func (a AlgorithmInfo) checkGroups(numGroups int) error {
	if a.MinGroups > 0 && numGroups < a.MinGroups {
		return fmt.Errorf("fairrank: algorithm %q needs at least %d groups, got %d", a.Name, a.MinGroups, numGroups)
	}
	if a.MaxGroups > 0 && numGroups > a.MaxGroups {
		return fmt.Errorf("fairrank: algorithm %q supports at most %d groups, got %d", a.Name, a.MaxGroups, numGroups)
	}
	return nil
}
