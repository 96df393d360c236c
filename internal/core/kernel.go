package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/pl"
)

// Noise names a noise axis: a randomization mechanism around the
// central ranking. The names are the ones package fairrank serves the
// mechanisms under.
type Noise string

// The built-in noise axes.
const (
	// NoiseMallows draws from the Mallows model M(central, θ) — the
	// paper's mechanism.
	NoiseMallows Noise = "mallows"
	// NoiseGMallows draws from the Fligner–Verducci generalized Mallows
	// model with per-position dispersion θ·0.97^j.
	NoiseGMallows Noise = "gmallows"
	// NoisePlackettLuce draws a Plackett–Luce ranking whose item at
	// central rank r (0-based) has weight e^{−θ·r}: θ = 0 is uniform,
	// large θ concentrates on the central.
	NoisePlackettLuce Noise = "plackett-luce"
)

// gmallowsDecay is the per-position geometric decay of the generalized
// Mallows axis: insertion step j uses dispersion θ·gmallowsDecay^j, so
// the head of the ranking stays close to the central while the tail
// mixes progressively more.
const gmallowsDecay = 0.97

// An Axis is one noise mechanism: its catalog description, a reference
// sampler and an amortized kernel. Reference draws full rankings
// straight from the model; it is the reference the kernel is checked
// against. The kernel is the engine's draw path: it completes a plan
// whose size-state, center, θ, prefix and truncation are set, fetching
// the cached (n, θ) tables, checking out the pooled per-request vector,
// saying whether draw workers need sampler scratch and picking the draw
// function, which materializes only the top-k prefix on a truncated
// plan. Every kernel consumes the RNG stream exactly as its reference
// sampler does, so for equal seeds its draws (their prefixes, when
// truncated) are bit-identical to the reference's.
type Axis struct {
	Description string
	Reference   func(central []int, theta float64) (func(*rand.Rand) []int, error)
	kernel      func(p Plan) (Plan, error)
}

// Axes is the noise registry: every mechanism the engine draws from.
// Engine.Plan draws through their kernels; package fairrank serves the
// table as its noise catalog (Noises, LookupNoise) and keeps one
// truncated-draw counter per axis.
var Axes = map[Noise]Axis{
	NoiseMallows: {
		Description: "Mallows model M(central, θ) — the paper's mechanism (repeated-insertion sampling, amortized tables)",
		Reference:   mallowsReference,
		kernel:      prepareMallows,
	},
	NoiseGMallows: {
		Description: "generalized Mallows (Fligner–Verducci) with per-position dispersion θ·0.97^j: the head stays close to the central, the tail mixes more",
		Reference:   gmallowsReference,
		kernel:      prepareGMallows,
	},
	NoisePlackettLuce: {
		Description: "Plackett–Luce with weights e^{−θ·rank} (Gumbel-max sampling); θ = 0 is uniform, large θ concentrates on the central",
		Reference:   plReference,
		kernel:      preparePL,
	},
}

// gmallowsThetas is the generalized Mallows axis's dispersion schedule
// over n insertion steps: θ·gmallowsDecay^j at step j.
func gmallowsThetas(n int, theta float64) []float64 {
	thetas := make([]float64, n)
	for j := range thetas {
		thetas[j] = theta * math.Pow(gmallowsDecay, float64(j))
	}
	return thetas
}

// plLogWeights writes the Plackett–Luce axis's log-weights into
// dst[:len(center)] and returns them: the item at central rank rk gets
// −θ·rk. Drawing on log-weights (internal/pl, Gumbel-max trick) keeps
// long rankings and large θ from underflowing the tail weights to zero.
func plLogWeights(center perm.Perm, theta float64, dst []float64) []float64 {
	dst = dst[:len(center)]
	for rk, item := range center {
		dst[item] = -theta * float64(rk)
	}
	return dst
}

func mallowsReference(central []int, theta float64) (func(*rand.Rand) []int, error) {
	model, err := mallows.New(central, theta)
	if err != nil {
		return nil, err
	}
	return func(rng *rand.Rand) []int { return model.Sample(rng) }, nil
}

func gmallowsReference(central []int, theta float64) (func(*rand.Rand) []int, error) {
	model, err := mallows.NewGeneralized(central, gmallowsThetas(len(central), theta))
	if err != nil {
		return nil, err
	}
	return func(rng *rand.Rand) []int { return model.Sample(rng) }, nil
}

func plReference(central []int, theta float64) (func(*rand.Rand) []int, error) {
	if err := perm.Perm(central).Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(theta) || theta < 0 {
		return nil, fmt.Errorf("core: plackett-luce strength %v, want ≥ 0", theta)
	}
	logw := plLogWeights(central, theta, make([]float64, len(central)))
	return func(rng *rand.Rand) []int { return pl.SampleLogWeights(logw, rng) }, nil
}

// Plan is one request's prepared draws: the draw function and the state
// every draw of the request shares, read-only across the parallel
// loop's workers. Its draws go into its Engine's pooled buffers.
type Plan struct {
	draw      drawFunc
	center    perm.Perm
	theta     float64
	topK      int
	truncated bool

	eng    *Engine
	st     *sizeState
	tab    *mallows.GeneralizedTables // insertion tables of both Mallows axes
	vecBuf *[]float64                 // pooled vector behind vec
	vec    []float64                  // PL log-weights or Mallows miss thresholds
	usesPL bool                       // each worker needs Plackett–Luce scratch
}

// drawFunc draws one sample of plan p into dst — a buffer of capacity
// n — with the worker's Plackett–Luce scratch sc (unused on the Mallows
// axes), consuming rng, and returns the written ranking: the full
// permutation, or just the top-k prefix on a truncated plan. The plan
// travels by value so that no request state escapes to the heap through
// the indirect call.
type drawFunc func(p Plan, sc *pl.Scratch, dst perm.Perm, rng *rand.Rand) perm.Perm

// Truncated reports whether the plan's draws materialize only the top-k
// prefix.
func (p *Plan) Truncated() bool { return p.truncated }

// drawWorker is what one draw loop checks out of its plan's Engine:
// the buffer the next draw overwrites, the buffer holding the kept draw
// (both of one capacity, at least the plan's n) and, once the worker
// has drawn on the Plackett–Luce axis, its sampler scratch, sized for
// that capacity.
type drawWorker struct {
	cur, best perm.Perm
	plScratch *pl.Scratch
}

// checkout hands one draw loop a worker, building a new one when the
// pooled one is missing or smaller than n, and Plackett–Luce scratch
// when the plan needs it and the worker has none; a checkout that had
// to allocate counts one pool miss. checkin takes the worker back when
// the loop finishes.
func (p *Plan) checkout() *drawWorker {
	n := len(p.center)
	w, miss := p.eng.workers.get(), false
	if w == nil || cap(w.cur) < n {
		w, miss = &drawWorker{cur: make(perm.Perm, n), best: make(perm.Perm, n)}, true
	}
	if p.usesPL && w.plScratch == nil {
		w.plScratch, miss = pl.NewScratch(cap(w.cur)), true
	}
	if miss {
		p.eng.workers.misses.Add(1)
	}
	return w
}

func (p *Plan) checkin(w *drawWorker) { p.eng.workers.put(w) }

// vector checks out the plan's per-request vector, of capacity at least
// n+1, building a new one when the pooled one is missing or smaller.
func (p *Plan) vector() []float64 {
	n := len(p.center)
	p.vecBuf = p.eng.vecs.get()
	if p.vecBuf == nil || cap(*p.vecBuf) < n+1 {
		buf := make([]float64, n+1)
		p.vecBuf = &buf
		p.eng.vecs.misses.Add(1)
	}
	return *p.vecBuf
}

// Release returns the plan's pooled per-request vector; call it once
// the request's draws are done.
func (p *Plan) Release() {
	if p.vecBuf != nil {
		p.eng.vecs.put(p.vecBuf)
	}
}

// prepareMallows and prepareGMallows serve the two Mallows axes by
// repeated insertion through the size-state's cached tables: the
// constant schedule θ for M(center, θ), the decaying θ·0.97^j for the
// generalized axis. They differ only in which tables they fetch.
func prepareMallows(p Plan) (Plan, error)  { return p.insertion(p.st.tables()) }
func prepareGMallows(p Plan) (Plan, error) { return p.insertion(p.st.gtables()) }

// insertion completes a plan drawing through tab with the bounded-window
// sampler, whose window at k = n is the whole ranking; a truncated plan
// precomputes its miss thresholds once per request on the pooled vector.
func (p Plan) insertion(tab *mallows.GeneralizedTables, err error) (Plan, error) {
	if err != nil {
		return p, err
	}
	p.tab, p.draw = tab, drawInsertion
	if p.truncated {
		p.vec = tab.MissThresholds(p.topK, p.vector())
	}
	return p, nil
}

func drawInsertion(p Plan, _ *pl.Scratch, dst perm.Perm, rng *rand.Rand) perm.Perm {
	return p.tab.SampleTopKInto(p.center, p.topK, p.vec, dst, rng)
}

// preparePL builds the Plackett–Luce log-weights once per request on the
// pooled vector and gives each worker Gumbel scratch; truncated plans
// select through the bounded k-slot heap instead of a full sort.
func preparePL(p Plan) (Plan, error) {
	p.vec = plLogWeights(p.center, p.theta, p.vector())
	p.usesPL, p.draw = true, drawPL
	return p, nil
}

func drawPL(p Plan, sc *pl.Scratch, dst perm.Perm, rng *rand.Rand) perm.Perm {
	if p.truncated {
		return pl.SampleTopKInto(p.vec, p.topK, dst, sc, rng)
	}
	return pl.SampleLogWeightsInto(p.vec, dst, sc, rng)
}
