package mallows

import (
	"math"
	"math/rand"

	"repro/internal/perm"
)

// Sample draws one permutation from the model via the repeated insertion
// model (RIM), which is exact for the Kendall tau Mallows distribution:
// the j-th item of the center is inserted above v ∈ {0,…,j−1} of the
// already-placed items with probability proportional to e^{−θv}; the
// total displacement Σv equals the Kendall tau distance to the center.
//
// The slice insertions make a draw O(n + Σv) — memmove-fast and linear
// in expectation for fixed θ > 0, but Θ(n²) worst case as θ → 0. The
// displacement draw itself is O(1) by inverting the truncated-geometric
// CDF. Callers who hit the quadratic regime (small dispersions,
// adversarially large n) should draw through the Fenwick-backed
// FastSampler/SampleFast, which is O(n log n) unconditionally; callers
// who only consume a short prefix should use SampleTopKInto, which
// skips the sub-window insertions entirely.
func (m *Model) Sample(rng *rand.Rand) perm.Perm {
	p, _ := m.SampleWithDistance(rng)
	return p
}

// SampleWithDistance is Sample but also returns the Kendall tau distance
// of the sample from the center, which the insertion process yields for
// free. It shares Sample's cost profile; see Sample for when the
// Fenwick-backed fast path is the better choice.
func (m *Model) SampleWithDistance(rng *rand.Rand) (perm.Perm, int64) {
	n := m.N()
	out := make(perm.Perm, 0, n)
	var dist int64
	for j := 1; j <= n; j++ {
		v := sampleDisplacement(j, m.Theta, rng)
		dist += int64(v)
		idx := j - 1 - v // v items already placed end up below the new one
		out = append(out, 0)
		copy(out[idx+1:], out[idx:])
		out[idx] = m.Center[j-1]
	}
	return out, dist
}

// SampleN draws m independent samples.
func (m *Model) SampleN(count int, rng *rand.Rand) []perm.Perm {
	out := make([]perm.Perm, count)
	for i := range out {
		out[i] = m.Sample(rng)
	}
	return out
}

// sampleDisplacement draws V ∈ {0,…,j−1} with P(V=v) ∝ e^{−θv}.
//
// The uniform limit is q = e^{−θ} rounding to 1 (θ ≤ 2^−54), not θ = 0:
// there the inversion below would compute 0/0. Uniform is exact to
// double precision there: the truncated geometric differs from it by a
// relative factor of at most e^{jθ} − 1, below 1e-10 for j ≤ 1e6.
func sampleDisplacement(j int, theta float64, rng *rand.Rand) int {
	if j <= 1 {
		return 0
	}
	q := math.Exp(-theta)
	if q == 1 {
		return rng.Intn(j)
	}
	// CDF(v) = (1 − q^{v+1})/(1 − q^{j}); invert at u ~ U(0,1):
	// v = ⌈ ln(1 − u(1−q^j)) / ln q ⌉ − 1.
	u := rng.Float64()
	x := math.Log1p(-u*(1-math.Pow(q, float64(j)))) / math.Log(q)
	v := int(math.Ceil(x)) - 1
	if v < 0 {
		v = 0
	}
	if v > j-1 {
		v = j - 1
	}
	return v
}
