package mallows

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/perm"
)

// GeneralizedTables precomputes the per-step quantities of the
// generalized (Fligner–Verducci) displacement draw: with one dispersion
// θ_j per insertion step, step j needs its own ln q_j and CDF
// normalizer 1 − q_j^j, where q_j = e^{−θ_j}. One table serves every
// sample drawn from any GeneralizedModel with the same dispersion
// schedule, so a serving layer can build it once per (n, schedule) and
// amortize the Exp/Log/Pow evaluations that GeneralizedModel.Sample
// otherwise repeats on every displacement.
//
// Displacement draws through GeneralizedTables consume the RNG stream
// exactly like the table-free sampler and reproduce its arithmetic bit
// for bit, so equal seeds yield identical permutations with or without
// tables.
type GeneralizedTables struct {
	thetas  []float64 // per-step dispersions, cloned; 0 where q_j rounds to 1
	logQ    []float64 // logQ[j] = ln q_j, j = 1…n; 0 when θ_j = 0
	cdfZ    []float64 // cdfZ[j] = 1 − q_j^j, the CDF normalizer at step j
	invCdfZ []float64 // 1/cdfZ[j]; +Inf where θ_j = 0 (never consulted)
}

// NewGeneralizedTables builds displacement tables for generalized
// models over len(thetas) items; thetas[j−1] is the dispersion of
// insertion step j and must be ≥ 0.
func NewGeneralizedTables(thetas []float64) (*GeneralizedTables, error) {
	n := len(thetas)
	t := &GeneralizedTables{
		thetas:  append([]float64(nil), thetas...),
		logQ:    make([]float64, n+1),
		cdfZ:    make([]float64, n+1),
		invCdfZ: make([]float64, n+1),
	}
	for j := 1; j <= n; j++ {
		theta := thetas[j-1]
		if math.IsNaN(theta) || theta < 0 {
			return nil, fmt.Errorf("mallows: dispersion θ_%d = %v, want ≥ 0", j, theta)
		}
		// Compute q_j, ln q_j, and q_j^j exactly as sampleDisplacement
		// does (Exp then Log/Pow, not −θ and iterated products) so draws
		// match the table-free path bit for bit. Where q_j rounds to 1
		// the step is its uniform limit: θ_j is stored as 0, so every
		// draw takes the θ_j = 0 branch.
		q := math.Exp(-theta)
		if q == 1 {
			t.thetas[j-1] = 0
			t.invCdfZ[j] = math.Inf(1)
			continue
		}
		t.logQ[j] = math.Log(q)
		t.cdfZ[j] = 1 - math.Pow(q, float64(j))
		t.invCdfZ[j] = 1 / t.cdfZ[j]
	}
	return t, nil
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

// Displacement draws V ∈ {0,…,j−1} with P(V=v) ∝ e^{−θ_j·v} — bit for
// bit the arithmetic of the table-free generalized draw at step j.
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
// dispersion schedule is positional, so unlike the fixed-θ Tables a
// smaller center cannot borrow a larger table.
func (t *GeneralizedTables) checkCenter(center perm.Perm) {
	if len(center) != t.N() {
		panic(fmt.Sprintf("mallows: generalized tables over %d steps used with a %d-item center", t.N(), len(center)))
	}
}

// SampleInto draws one permutation from the generalized model
// (center, schedule) through the tables, writing it into out (capacity
// ≥ n required to avoid reallocation) and returning the sample. It is
// stream- and bit-identical to GeneralizedModel.Sample for equal seeds;
// with precomputed tables and enough capacity a draw performs no
// allocation. Panics if the center does not match the table size.
func (t *GeneralizedTables) SampleInto(center perm.Perm, out perm.Perm, rng *rand.Rand) perm.Perm {
	t.checkCenter(center)
	n := t.N()
	if cap(out) < n {
		out = make(perm.Perm, n)
	}
	out = out[:0]
	for j := 1; j <= n; j++ {
		v := t.Displacement(j, rng)
		idx := j - 1 - v // v items already placed end up below the new one
		out = append(out, 0)
		copy(out[idx+1:], out[idx:])
		out[idx] = center[j-1]
	}
	return out
}

// MissThresholds precomputes the per-step guaranteed-miss thresholds of
// SampleTopKInto at window size k, into dst (capacity ≥ n+1 required to
// avoid reallocation; the returned slice has length n+1). For a step
// j > k with θ_j > 0, a uniform u < dst[j] proves the insertion index
// lands at or below the window bottom — the truncated-geometric CDF at
// the window edge, (1 − q_j^{j−k})/(1 − q_j^j), minus the topKGuard
// slack that sends boundary draws to the exact inversion. Entries at
// j ≤ k or θ_j = 0 are 0 (never consulted). Building the thresholds
// once per (schedule, k) keeps the truncated draw's skip loop to one
// compare per step, with no Exp/Log in the hot path.
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
		// q_j^{j−k} via Exp(logQ·(j−k)): within ~1e-13 relative of the
		// Pow the inversion arithmetic implies wherever the power is
		// representable, far inside the topKGuard slack.
		dst[j] = (1-math.Exp(float64(j-k)*t.logQ[j]))*t.invCdfZ[j] - topKGuard
	}
	return dst
}

// SampleTopKInto draws one permutation from the generalized model
// exactly like SampleInto but materializes only the top-k prefix,
// writing it into out (capacity ≥ min(k, n) required; k is clamped to
// [0, n]) and returning the delivered prefix. It is the per-step-θ
// variant of Model.SampleTopKInto: the repeated insertion process only
// ever pushes items down, so an item inserted at index ≥ k never
// re-enters the window and the sampler keeps a k-length window,
// discarding every insertion below it with one compare of the raw
// uniform against the step's miss threshold.
//
// thresh is the MissThresholds(k, …) table; nil recomputes each
// threshold inline (same draws, slower skip loop) — callers amortizing
// draws over one request should precompute. The draw consumes the RNG
// stream exactly like Sample/SampleInto — one displacement draw per
// insertion step, same order, same arithmetic — so for equal seeds the
// delivered prefix is bit-identical to the first k entries of the
// full-path sample. Panics if the center does not match the table size.
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
					miss = (1-math.Exp(float64(j-k)*t.logQ[j]))*t.invCdfZ[j] - topKGuard
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
