package mallows

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/perm"
)

// topKGuard is the relative slack on the guaranteed-miss threshold of
// SampleTopKInto. The threshold and the CDF inversion evaluate the same
// truncated-geometric CDF through different float expressions, so their
// rounding can disagree by a few ulps (~1e-16 relative) around the
// boundary. Draws within the slack of the threshold take the exact
// inversion instead of the shortcut: a uniform lands there about once
// per 10⁹ insertion steps, so the cost is nil and the shortcut can never
// misclassify a window hit.
const topKGuard = 1e-9

// GeneralizedTables precomputes the per-step quantities of the
// repeated-insertion displacement draw: with one dispersion θ_j per
// insertion step, step j needs its own ln q_j and CDF normalizer
// 1 − q_j^j, where q_j = e^{−θ_j}. They are the only displacement
// tables: the Mallows model M(π₀, θ) is the constant schedule θ_j = θ
// (NewTables), the generalized (Fligner–Verducci) model any other
// schedule (NewGeneralizedTables). One table serves every sample drawn
// around any center of its size, so a serving layer can build it once
// per (n, schedule) and amortize the Exp/Log/Pow evaluations that the
// reference samplers repeat on every displacement.
//
// Displacement draws through the tables consume the RNG stream exactly
// like the table-free samplers and reproduce their arithmetic bit for
// bit, so equal seeds yield identical permutations with or without
// tables.
type GeneralizedTables struct {
	theta   float64   // the constant θ of NewTables tables; NaN for a schedule
	thetas  []float64 // per-step dispersions, owned; 0 where q_j rounds to 1
	logQ    []float64 // logQ[j] = ln q_j, j = 1…n; 0 when θ_j = 0
	cdfZ    []float64 // cdfZ[j] = 1 − q_j^j, the CDF normalizer at step j
	invCdfZ []float64 // 1/cdfZ[j]; +Inf where θ_j = 0 (never consulted)
}

// Tables is GeneralizedTables under the name servebench's replayer
// uses for the tables NewTables builds; it goes with the replayer.
type Tables = GeneralizedTables

// NewTables builds displacement tables for Mallows models over n items
// with dispersion theta: the constant schedule θ_j = θ.
func NewTables(n int, theta float64) (*GeneralizedTables, error) {
	if n < 0 {
		return nil, fmt.Errorf("mallows: tables over %d items", n)
	}
	if math.IsNaN(theta) || theta < 0 {
		return nil, fmt.Errorf("mallows: dispersion θ = %v, want ≥ 0", theta)
	}
	thetas := make([]float64, n)
	for j := range thetas {
		thetas[j] = theta
	}
	t := newTables(thetas)
	t.theta = theta
	return t, nil
}

// NewGeneralizedTables builds displacement tables for generalized
// models over len(thetas) items; thetas[j−1] is the dispersion of
// insertion step j and must be ≥ 0.
func NewGeneralizedTables(thetas []float64) (*GeneralizedTables, error) {
	for j, theta := range thetas {
		if math.IsNaN(theta) || theta < 0 {
			return nil, fmt.Errorf("mallows: dispersion θ_%d = %v, want ≥ 0", j+1, theta)
		}
	}
	return newTables(append([]float64(nil), thetas...)), nil
}

// newTables builds the tables of a valid schedule, taking ownership of
// thetas.
func newTables(thetas []float64) *GeneralizedTables {
	n := len(thetas)
	t := &GeneralizedTables{
		theta:   math.NaN(),
		thetas:  thetas,
		logQ:    make([]float64, n+1),
		cdfZ:    make([]float64, n+1),
		invCdfZ: make([]float64, n+1),
	}
	prev, q, logQ := math.NaN(), 0.0, 0.0
	for j := 1; j <= n; j++ {
		// Compute q_j, ln q_j, and q_j^j exactly as sampleDisplacement
		// does (Exp then Log/Pow, not −θ and iterated products) so draws
		// match the table-free path bit for bit; a run of equal
		// dispersions, such as NewTables's constant schedule, shares one
		// Exp and Log. Where q_j rounds to 1 the step is its uniform
		// limit: θ_j is stored as 0, so every draw takes the θ_j = 0
		// branch.
		if th := thetas[j-1]; th != prev {
			prev, q = th, math.Exp(-th)
			logQ = math.Log(q)
		}
		if q == 1 {
			thetas[j-1] = 0
			t.invCdfZ[j] = math.Inf(1)
			continue
		}
		t.logQ[j] = logQ
		t.cdfZ[j] = 1 - math.Pow(q, float64(j))
		t.invCdfZ[j] = 1 / t.cdfZ[j]
	}
	return t
}

// Tables returns displacement tables matching the model.
func (m *Model) Tables() *GeneralizedTables {
	t, err := NewTables(m.N(), m.Theta)
	if err != nil {
		panic(err) // unreachable: Model invariants guarantee valid (n, θ)
	}
	return t
}

// Tables returns displacement tables matching the model's schedule.
func (m *GeneralizedModel) Tables() *GeneralizedTables {
	t, err := NewGeneralizedTables(m.Thetas)
	if err != nil {
		panic(err) // unreachable: GeneralizedModel invariants guarantee valid thetas
	}
	return t
}

// N returns the number of items the tables cover.
func (t *GeneralizedTables) N() int { return len(t.thetas) }

// checkModel panics unless t was built by NewTables for the model's
// size and dispersion.
func (t *GeneralizedTables) checkModel(m *Model) {
	if t.N() != m.N() || t.theta != m.Theta {
		panic(fmt.Sprintf("mallows: tables for (n=%d, θ=%g) used with model (n=%d, θ=%g)", t.N(), t.theta, m.N(), m.Theta))
	}
}

// SampleInto is Sample drawing through t, which must come from NewTables
// for the model's size and dispersion (it panics otherwise); see
// GeneralizedTables.SampleInto.
func (m *Model) SampleInto(t *GeneralizedTables, out perm.Perm, rng *rand.Rand) perm.Perm {
	t.checkModel(m)
	return t.SampleInto(m.Center, out, rng)
}

// SampleTopKInto is SampleInto delivering only the top-k prefix, with
// the miss thresholds computed inline; see
// GeneralizedTables.SampleTopKInto.
func (m *Model) SampleTopKInto(t *GeneralizedTables, k int, out perm.Perm, rng *rand.Rand) perm.Perm {
	t.checkModel(m)
	return t.SampleTopKInto(m.Center, k, nil, out, rng)
}

// Displacement draws V ∈ {0,…,j−1} with P(V=v) ∝ e^{−θ_j·v} — bit for
// bit the arithmetic of the table-free draw at step j.
// It panics if j exceeds the table size.
func (t *GeneralizedTables) Displacement(j int, rng *rand.Rand) int {
	if j <= 1 {
		return 0
	}
	if t.thetas[j-1] == 0 {
		return rng.Intn(j)
	}
	u := rng.Float64()
	x := math.Log1p(-u*t.cdfZ[j]) / t.logQ[j]
	v := int(math.Ceil(x)) - 1
	if v < 0 {
		v = 0
	}
	if v > j-1 {
		v = j - 1
	}
	return v
}

// checkCenter panics unless the center matches the table size: the
// dispersion schedule is positional, so a center cannot borrow a table
// of another size.
func (t *GeneralizedTables) checkCenter(center perm.Perm) {
	if len(center) != t.N() {
		panic(fmt.Sprintf("mallows: generalized tables over %d steps used with a %d-item center", t.N(), len(center)))
	}
}

// SampleInto draws one permutation by repeated insertion around center
// through the tables, writing it into out (capacity ≥ n required to
// avoid reallocation) and returning the sample: SampleTopKInto with the
// whole ranking as its window. It is stream- and bit-identical to
// GeneralizedModel.Sample (and, on NewTables tables, to Model.Sample)
// for equal seeds; with precomputed tables and enough capacity a draw
// performs no allocation. Panics if the center does not match the table
// size.
func (t *GeneralizedTables) SampleInto(center perm.Perm, out perm.Perm, rng *rand.Rand) perm.Perm {
	return t.SampleTopKInto(center, t.N(), nil, out, rng)
}

// missThreshold is step j's guaranteed-miss threshold at window size
// k < j, for θ_j > 0: the truncated-geometric CDF at the window edge,
// (1 − q_j^{j−k})/(1 − q_j^j), minus the topKGuard slack that sends
// boundary draws to the exact inversion. Where steps j−k and j share
// their dispersion, 1 − q_j^{j−k} is exactly cdfZ[j−k].
func (t *GeneralizedTables) missThreshold(j, k int) float64 {
	if t.thetas[j-k-1] == t.thetas[j-1] {
		return t.cdfZ[j-k]*t.invCdfZ[j] - topKGuard
	}
	// q_j^{j−k} via Exp(logQ·(j−k)): within ~1e-13 relative of the Pow
	// the inversion arithmetic implies wherever the power is
	// representable, far inside the topKGuard slack.
	return (1-math.Exp(float64(j-k)*t.logQ[j]))*t.invCdfZ[j] - topKGuard
}

// MissThresholds precomputes the per-step guaranteed-miss thresholds of
// SampleTopKInto at window size k, into dst (capacity ≥ n+1 required to
// avoid reallocation; the returned slice has length n+1). For a step
// j > k with θ_j > 0, a uniform u < dst[j] proves the insertion index
// lands at or below the window bottom. Entries at j ≤ k or θ_j = 0 are
// 0 (never consulted). Building the thresholds once per (tables, k)
// keeps the truncated draw's skip loop to one compare per step, with no
// Exp/Log in the hot path.
func (t *GeneralizedTables) MissThresholds(k int, dst []float64) []float64 {
	n := t.N()
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	if cap(dst) < n+1 {
		dst = make([]float64, n+1)
	}
	dst = dst[:n+1]
	for j := 0; j <= n && j <= k; j++ {
		dst[j] = 0
	}
	for j := k + 1; j <= n; j++ {
		if j <= 1 || t.thetas[j-1] == 0 {
			dst[j] = 0
			continue
		}
		dst[j] = t.missThreshold(j, k)
	}
	return dst
}

// SampleTopKInto draws one permutation by repeated insertion around
// center, like GeneralizedModel.Sample, but materializes only the top-k
// prefix, writing it into out (capacity ≥ min(k, n) required; k is
// clamped to [0, n]) and returning the delivered prefix. It is the one
// insertion loop over the tables: at k = n the window is the whole
// ranking, no step is skipped, and the draw is SampleInto's.
//
// The work per draw collapses because the repeated insertion process
// only ever pushes items down: an item inserted at index ≥ k can never
// re-enter the top-k window, so the sampler keeps a k-length window and
// discards every insertion below it. For θ_j > 0 the insertion index of
// step j is below the window with probability
// P(V ≤ j−1−k) = (1 − q_j^{j−k})/(1 − q_j^j), and because the CDF
// inversion is monotone in the uniform draw that test is a single
// compare of the raw uniform against the step's miss threshold — the
// whole stripe of sub-window steps consumes its randomness in one tight
// compare-and-skip loop with no logarithms, no CDF inversion, and no
// memmove. Only the ~k·(1 + θ⁻¹·ln(n/k)) window hits pay the exact
// inversion and an O(k) shift. A uniform step (θ_j = 0, or any θ_j
// whose q_j rounds to 1) draws Intn(j) and has no skippable stripe.
//
// thresh is the MissThresholds(k, …) table; nil computes each threshold
// inline (same draws, slower skip loop) — callers amortizing draws over
// one request should precompute. The draw consumes the RNG stream
// exactly like the table-free Sample — one displacement draw per
// insertion step, same order, same arithmetic — so for equal seeds the
// delivered prefix is bit-identical to the first k entries of the
// full-length sample, and a sequence of draws from one shared stream
// stays aligned draw for draw with the full path. Panics if the center
// does not match the table size.
func (t *GeneralizedTables) SampleTopKInto(center perm.Perm, k int, thresh []float64, out perm.Perm, rng *rand.Rand) perm.Perm {
	t.checkCenter(center)
	n := t.N()
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	if cap(out) < k {
		out = make(perm.Perm, k)
	}
	out = out[:0]
	w := 0 // current window length, min(items inserted so far, k)
	for j := 1; j <= n; j++ {
		var idx int
		switch {
		case j <= 1:
			// Displacement draws nothing at the first step.
			idx = 0
		case t.thetas[j-1] == 0:
			// Uniform limit: insertion index uniform over {0,…,j−1};
			// consume Intn exactly like the full path.
			idx = j - 1 - rng.Intn(j)
		default:
			u := rng.Float64()
			if j > k {
				var miss float64
				if thresh != nil {
					miss = thresh[j]
				} else {
					miss = t.missThreshold(j, k)
				}
				if u < miss {
					// Guaranteed miss: V ≤ j−1−k, so the insertion index
					// is ≥ k and the item lands below the window for good.
					continue
				}
			}
			// Exact CDF inversion, bit for bit the Displacement
			// arithmetic on the same uniform.
			x := math.Log1p(-u*t.cdfZ[j]) / t.logQ[j]
			v := int(math.Ceil(x)) - 1
			if v < 0 {
				v = 0
			}
			if v > j-1 {
				v = j - 1
			}
			idx = j - 1 - v
		}
		if idx >= k {
			continue
		}
		if w < k {
			out = append(out, 0)
			w++
		}
		copy(out[idx+1:w], out[idx:w-1])
		out[idx] = center[j-1]
	}
	return out
}
