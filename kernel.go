package fairrank

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/pl"
)

// A kernel is the engine's dedicated draw path for one built-in noise
// axis. It completes a plan whose size-state, center, θ, prefix and
// truncation are set: it fetches the cached (n, θ) tables, checks out
// the pooled per-request vector, names the per-worker scratch pool and
// picks the draw function, which materializes only the top-k prefix on
// a truncated plan. Every kernel consumes the RNG stream exactly as the
// axis's registered sampler does, so for equal seeds its draws (their
// prefixes, when truncated) are bit-identical to the registry adapter's.
type kernel func(p drawPlan) (drawPlan, error)

// kernels maps each noise axis that has a dedicated draw path to its
// kernel; RegisterNoise derives NoiseInfo.Truncated from it, and NewRanker
// sizes the per-axis truncated-draw counters by it. Mechanisms absent
// here draw through the registry adapter (registeredPlan).
var kernels = map[Noise]kernel{
	NoiseMallows:      prepareMallows,
	NoiseGMallows:     prepareGMallows,
	NoisePlackettLuce: preparePL,
}

// drawPlan is one request's prepared draws: the draw function and the
// state every draw of the request shares, read-only across DoParallel's
// workers. Kernel plans draw into the size-state's pooled buffers;
// registry-adapter plans (st == nil) touch no size-state at all, so
// third-party traffic never creates or evicts one.
type drawPlan struct {
	draw      drawFunc
	center    perm.Perm
	theta     float64
	topK      int
	truncated bool

	st     *sizeState
	tab    *mallows.Tables            // Mallows insertion tables
	gt     *mallows.GeneralizedTables // generalized-Mallows step tables
	vecBuf *[]float64                 // pooled vector behind vec
	vec    []float64                  // PL log-weights or gmallows miss thresholds
	// wsPool pools the per-worker sampler scratch; nil when the draws
	// need none.
	wsPool *sync.Pool

	noise  Noise                  // the registered mechanism (adapter plans)
	sample func(*rand.Rand) []int // its draw function (adapter plans)
}

// drawFunc draws one sample of plan p into dst — a full-length buffer —
// with the worker's scratch ws, consuming rng, and returns the written
// ranking: the full permutation, or just the top-k prefix on a truncated
// plan. The plan travels by value so that no request state escapes to
// the heap through the indirect call.
type drawFunc func(p drawPlan, ws any, dst perm.Perm, rng *rand.Rand) (perm.Perm, error)

// drawWorker is what one draw loop checks out of its plan: the buffer
// the next draw overwrites, the buffer holding the kept draw, and the
// sampler scratch.
type drawWorker struct {
	cur, best perm.Perm
	ws        any
}

// checkout hands one draw loop its buffers and sampler scratch; checkin
// takes them back when the loop finishes.
func (p *drawPlan) checkout() drawWorker {
	var w drawWorker
	if p.wsPool != nil {
		w.ws = p.wsPool.Get()
	}
	if p.st == nil {
		w.cur, w.best = make(perm.Perm, len(p.center)), make(perm.Perm, len(p.center))
		return w
	}
	w.cur, w.best = p.st.scratch.Get(), p.st.scratch.Get()
	return w
}

func (p *drawPlan) checkin(w drawWorker) {
	if p.wsPool != nil {
		p.wsPool.Put(w.ws)
	}
	if p.st != nil {
		p.st.scratch.Put(w.cur)
		p.st.scratch.Put(w.best)
	}
}

// release returns the plan's pooled per-request vector.
func (p *drawPlan) release() {
	if p.vecBuf != nil {
		p.st.floats.Put(p.vecBuf)
	}
}

// plan prepares one request's draws from noise: through the axis's
// kernel when it has one, else — and for every axis under
// forceFullDraws, the reference the kernels are checked against —
// through the registry adapter.
func (r *Ranker) plan(noise Noise, center perm.Perm, theta float64, topK int) (drawPlan, error) {
	k, ok := kernels[noise]
	if !ok || r.forceFullDraws {
		return registeredPlan(noise, center, theta, topK)
	}
	return k(drawPlan{
		center:    center,
		theta:     theta,
		topK:      topK,
		truncated: topK < len(center),
		st:        r.state(len(center), theta),
	})
}

// prepareMallows serves M(center, θ) from the amortized insertion tables:
// repeated insertion, or the lazy top-k sampler that never materializes
// the ranks a TopK response discards.
func prepareMallows(p drawPlan) (drawPlan, error) {
	tab, err := p.st.tables()
	p.tab, p.draw = tab, drawMallows
	return p, err
}

func drawMallows(p drawPlan, _ any, dst perm.Perm, rng *rand.Rand) (perm.Perm, error) {
	m := mallows.Model{Center: p.center, Theta: p.theta}
	if p.truncated {
		return m.SampleTopKInto(p.tab, p.topK, dst, rng), nil
	}
	return m.SampleInto(p.tab, dst, rng), nil
}

// prepareGMallows serves the generalized Mallows built-in from per-step
// tables cached per (n, θ); truncated plans precompute the bounded-window
// sampler's miss thresholds once per request on pooled float scratch.
func prepareGMallows(p drawPlan) (drawPlan, error) {
	gt, err := p.st.gtables()
	if err != nil {
		return p, err
	}
	p.gt, p.draw = gt, drawGMallows
	if p.truncated {
		p.vecBuf = p.st.floats.Get().(*[]float64)
		p.vec = gt.MissThresholds(p.topK, *p.vecBuf)
	}
	return p, nil
}

func drawGMallows(p drawPlan, _ any, dst perm.Perm, rng *rand.Rand) (perm.Perm, error) {
	if p.truncated {
		return p.gt.SampleTopKInto(p.center, p.topK, p.vec, dst, rng), nil
	}
	return p.gt.SampleInto(p.center, dst, rng), nil
}

// preparePL builds the Plackett–Luce log-weights once per request on
// pooled float scratch — the item at central rank rk gets −θ·rk, the
// exact expression core.PlackettLuceNoise builds — and gives each worker
// pooled Gumbel scratch; truncated plans select through the bounded k-slot
// heap instead of a full sort.
func preparePL(p drawPlan) (drawPlan, error) {
	p.vecBuf = p.st.floats.Get().(*[]float64)
	p.vec = (*p.vecBuf)[:len(p.center)]
	for rk, item := range p.center {
		p.vec[item] = -p.theta * float64(rk)
	}
	p.wsPool, p.draw = &p.st.pls, drawPL
	return p, nil
}

func drawPL(p drawPlan, ws any, dst perm.Perm, rng *rand.Rand) (perm.Perm, error) {
	sc := ws.(*pl.Scratch)
	if p.truncated {
		return pl.SampleTopKInto(p.vec, p.topK, dst, sc, rng), nil
	}
	return pl.SampleLogWeightsInto(p.vec, dst, sc, rng), nil
}

// registeredPlan is the validating registry adapter: it draws straight
// from the mechanism's registered sampler, always full-length.
func registeredPlan(noise Noise, center perm.Perm, theta float64, topK int) (drawPlan, error) {
	sampler, err := lookupSampler(noise)
	if err != nil {
		return drawPlan{}, err
	}
	sample, err := sampler(center, theta)
	if err != nil {
		return drawPlan{}, fmt.Errorf("fairrank: noise %q: %w", noise, err)
	}
	return drawPlan{draw: drawRegistered, center: center, topK: topK, noise: noise, sample: sample}, nil
}

// drawRegistered takes one draw from the registered sampler, validates it
// as a full permutation of the pool, so a defective (possibly third-party)
// mechanism surfaces as an error instead of corrupting the selection, and
// copies it into dst, so a sampler that reuses its output slice cannot
// overwrite a draw the loop keeps.
func drawRegistered(p drawPlan, _ any, dst perm.Perm, rng *rand.Rand) (perm.Perm, error) {
	d := perm.Perm(p.sample(rng))
	if len(d) != len(p.center) {
		return nil, fmt.Errorf("fairrank: noise %q: drew %d indices for %d candidates", p.noise, len(d), len(p.center))
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("fairrank: noise %q: invalid draw: %w", p.noise, err)
	}
	return dst[:copy(dst, d)], nil
}
