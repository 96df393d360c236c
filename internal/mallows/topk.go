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

// SampleTopKInto draws one permutation from the model exactly like
// SampleInto but materializes only the top-k prefix, writing it into out
// (capacity ≥ min(k, n) required; k is clamped to [0, n]) and returning
// the delivered prefix. With precomputed tables and enough capacity a
// draw performs no allocation.
//
// It consumes the RNG stream exactly like Sample/SampleInto — one
// displacement draw per insertion step, same order, same arithmetic —
// so for equal seeds the delivered prefix is bit-identical to the first
// k entries of the full-path sample, and a sequence of draws from one
// shared stream stays aligned draw for draw with the full path.
//
// The work per draw collapses because the repeated insertion process
// only ever pushes items down: an item inserted at index ≥ k can never
// re-enter the top-k window, so the sampler keeps a k-length window and
// discards every insertion below it. For θ > 0 the insertion index of
// step j is below the window with probability
// P(V ≤ j−1−k) = (1 − q^{j−k})/(1 − q^j), and because the CDF inversion
// is monotone in the uniform draw that test is a single compare of the
// raw uniform against a precomputed normalizer ratio — the whole
// stripe of sub-window steps consumes its randomness in one tight
// compare-and-skip loop with no logarithms, no CDF inversion, and no
// memmove. Only the ~k·(1 + θ⁻¹·ln(n/k)) window hits pay the exact
// inversion and an O(k) shift. In the uniform limit (θ = 0, or any θ
// whose q = e^{−θ} rounds to 1) every step draws Intn(j) (the uniform
// limit has no skippable stripe) and only the k/j fraction of in-window
// hits shifts.
//
// Panics like SampleInto if t covers fewer items than the model or was
// built for a different dispersion.
func (m *Model) SampleTopKInto(t *Tables, k int, out perm.Perm, rng *rand.Rand) perm.Perm {
	n := m.N()
	if t.n < n || t.theta != m.Theta {
		panic(fmt.Sprintf("mallows: tables for (n=%d, θ=%g) used with model (n=%d, θ=%g)", t.n, t.theta, n, m.Theta))
	}
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	out = out[:0]
	w := 0 // current window length, min(items inserted so far, k)
	for j := 1; j <= n; j++ {
		var idx int
		switch {
		case j <= 1:
			// Displacement draws nothing at the first step.
			idx = 0
		case t.logQ == 0:
			// Uniform limit: insertion index uniform over {0,…,j−1};
			// consume Intn exactly like the full path.
			idx = j - 1 - rng.Intn(j)
		default:
			u := rng.Float64()
			if j > k && u < t.cdfZ[j-k]*t.invCdfZ[j]-topKGuard {
				// Guaranteed miss: V ≤ j−1−k, so the insertion index is
				// ≥ k and the item lands below the window for good.
				continue
			}
			// Exact CDF inversion, bit for bit the Displacement
			// arithmetic on the same uniform.
			x := math.Log1p(-u*t.cdfZ[j]) / t.logQ
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
		out[idx] = m.Center[j-1]
	}
	return out
}
