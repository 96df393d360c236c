package mallows

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/perm"
)

// Tables precomputes the per-position quantities of the truncated-
// geometric displacement draw for a fixed (n, θ): 1 − q^j for every
// insertion step j and ln q, where q = e^{−θ}. A single table serves
// every sample drawn from any model over n items with dispersion θ, so a
// serving layer can build it once per (n, θ) and amortize the e^{−θ} and
// q^j evaluations that Sample otherwise repeats on every displacement.
//
// Displacement draws through Tables consume the RNG stream exactly like
// the table-free samplers and reproduce their arithmetic bit for bit, so
// equal seeds yield identical permutations with or without tables.
type Tables struct {
	n     int
	theta float64
	logQ  float64   // ln q, q = e^{−θ}; 0 when q rounds to 1 (uniform draws)
	cdfZ  []float64 // cdfZ[j] = 1 − q^j, the CDF normalizer at step j
	// invCdfZ[j] = 1/cdfZ[j] lets the truncated top-k sampler test
	// "displacement too small to reach the window" with one multiply per
	// insertion step instead of a divide (see Model.SampleTopKInto).
	// +Inf at j = 0, where the normalizer is 0; never consulted there.
	invCdfZ []float64
}

// NewTables builds displacement tables for models over n items with
// dispersion theta.
func NewTables(n int, theta float64) (*Tables, error) {
	if n < 0 {
		return nil, fmt.Errorf("mallows: tables over %d items", n)
	}
	if math.IsNaN(theta) || theta < 0 {
		return nil, fmt.Errorf("mallows: dispersion θ = %v, want ≥ 0", theta)
	}
	t := &Tables{n: n, theta: theta}
	// Compute q, ln q, and q^j exactly as sampleDisplacement does (Exp
	// then Log/Pow, not −θ and iterated products) so draws match the
	// table-free path bit for bit, including its uniform limit q = 1.
	if q := math.Exp(-theta); q < 1 {
		t.logQ = math.Log(q)
		t.cdfZ = make([]float64, n+1)
		t.invCdfZ = make([]float64, n+1)
		for j := 0; j <= n; j++ {
			t.cdfZ[j] = 1 - math.Pow(q, float64(j))
			t.invCdfZ[j] = 1 / t.cdfZ[j]
		}
	}
	return t, nil
}

// N returns the number of items the tables cover.
func (t *Tables) N() int { return t.n }

// Displacement draws V ∈ {0,…,j−1} with P(V=v) ∝ e^{−θv}, the j-th
// insertion displacement, using the precomputed normalizers. It panics if
// j exceeds the table size.
func (t *Tables) Displacement(j int, rng *rand.Rand) int {
	if j <= 1 {
		return 0
	}
	if t.logQ == 0 {
		return rng.Intn(j)
	}
	u := rng.Float64()
	x := math.Log1p(-u*t.cdfZ[j]) / t.logQ
	v := int(math.Ceil(x)) - 1
	if v < 0 {
		v = 0
	}
	if v > j-1 {
		v = j - 1
	}
	return v
}

// Tables returns displacement tables matching the model.
func (m *Model) Tables() *Tables {
	t, err := NewTables(m.N(), m.Theta)
	if err != nil {
		panic(err) // unreachable: Model invariants guarantee valid (n, θ)
	}
	return t
}

// SampleInto is Sample drawing its displacements through t and writing
// the permutation into out, which must have capacity ≥ n; it returns the
// (possibly reallocated) sample. With cap(out) ≥ n and precomputed
// tables, a draw performs no allocation, which is what the serving
// layer's scratch-buffer reuse relies on. Panics if t covers fewer items
// than the model or was built for a different dispersion.
func (m *Model) SampleInto(t *Tables, out perm.Perm, rng *rand.Rand) perm.Perm {
	n := m.N()
	if t.n < n || t.theta != m.Theta {
		panic(fmt.Sprintf("mallows: tables for (n=%d, θ=%g) used with model (n=%d, θ=%g)", t.n, t.theta, n, m.Theta))
	}
	out = out[:0]
	for j := 1; j <= n; j++ {
		v := t.Displacement(j, rng)
		idx := j - 1 - v // v items already placed end up below the new one
		out = append(out, 0)
		copy(out[idx+1:], out[idx:])
		out[idx] = m.Center[j-1]
	}
	return out
}

// SampleFast draws one permutation from the model in O(n log n)
// worst case, against Sample's O(n + total displacement) slice
// insertions.
//
// It runs the repeated insertion process backwards: the last-inserted
// item's insertion index is its final rank, so processing items from the
// bottom of the center upward, item j claims the (idx_j+1)-th still-free
// rank, where idx_j ∈ {0,…,j−1} is its insertion index. Selecting the
// k-th free slot is one descent of a Fenwick tree.
//
// When to prefer which (measured in BenchmarkMallowsSample): Sample's
// insertion cost is the number of displaced elements, whose expectation
// is E[d_KT] — O(n) for fixed θ > 0 thanks to memmove-fast shifts, but
// Θ(n²) as θ → 0. At n = 30000, SampleFast is ~7× faster at θ = 0 and
// ~1.5× slower at θ = 1. Use SampleFast for small dispersions or
// adversarially large n; Sample is the better default.
//
// The displacement distribution is identical to Sample's, so the two
// samplers draw from the same Mallows distribution; they consume the
// RNG stream in different orders, so corresponding draws differ.
//
// SampleFast builds its tables and Fenwick tree per call; repeated
// draws should construct a FastSampler once and reuse it.
func (m *Model) SampleFast(rng *rand.Rand) perm.Perm {
	return m.NewFastSampler(nil).Sample(rng)
}

// FastSampler couples a model with its displacement tables and a
// reusable Fenwick tree, so repeated SampleFast-style draws build
// nothing but the output permutation — and not even that when the caller
// provides scratch via SampleInto. It is not safe for concurrent use;
// pool FastSamplers to share across goroutines.
type FastSampler struct {
	m    *Model
	t    *Tables
	tree *freeSlots
}

// NewFastSampler returns a reusable Fenwick-tree sampler for the model.
// t may be nil, in which case tables are built; otherwise it must cover
// the model's size and dispersion (see Model.SampleInto).
func (m *Model) NewFastSampler(t *Tables) *FastSampler {
	if t == nil {
		t = m.Tables()
	} else if t.n < m.N() || t.theta != m.Theta {
		panic(fmt.Sprintf("mallows: tables for (n=%d, θ=%g) used with model (n=%d, θ=%g)", t.n, t.theta, m.N(), m.Theta))
	}
	return &FastSampler{m: m, t: t, tree: newFreeSlots(m.N())}
}

// Sample draws one permutation; it is distribution- and stream-identical
// to Model.SampleFast with the same RNG.
func (s *FastSampler) Sample(rng *rand.Rand) perm.Perm {
	return s.SampleInto(make(perm.Perm, s.m.N()), rng)
}

// SampleInto is Sample writing into out, which must have capacity ≥ n.
func (s *FastSampler) SampleInto(out perm.Perm, rng *rand.Rand) perm.Perm {
	n := s.m.N()
	out = out[:n]
	if n == 0 {
		return out
	}
	s.tree.reset()
	for j := n; j >= 1; j-- {
		v := s.t.Displacement(j, rng)
		idx := j - 1 - v // insertion index among the j items present
		rank := s.tree.takeKth(idx)
		out[rank] = s.m.Center[j-1]
	}
	return out
}

// freeSlots is a Fenwick tree over slots 0…n−1 supporting "claim the
// k-th free slot" in O(log n).
type freeSlots struct {
	n    int
	tree []int // 1-based Fenwick of free counts
	log2 uint
}

func newFreeSlots(n int) *freeSlots {
	f := &freeSlots{n: n, tree: make([]int, n+1)}
	f.reset()
	for 1<<(f.log2+1) <= n {
		f.log2++
	}
	return f
}

// reset marks every slot free again in O(n), letting one tree serve many
// draws.
func (f *freeSlots) reset() {
	clear(f.tree)
	for i := 1; i <= f.n; i++ {
		f.tree[i] += 1
		if j := i + (i & -i); j <= f.n {
			f.tree[j] += f.tree[i]
		}
	}
}

// takeKth removes and returns the 0-based position of the (k+1)-th free
// slot.
func (f *freeSlots) takeKth(k int) int {
	// Binary-lifting descent: find the smallest prefix holding k+1 frees.
	pos := 0
	remaining := k + 1
	for step := 1 << f.log2; step > 0; step >>= 1 {
		next := pos + step
		if next <= f.n && f.tree[next] < remaining {
			pos = next
			remaining -= f.tree[next]
		}
	}
	slot := pos // 0-based: pos is the count of slots strictly before it
	// Mark the slot used: subtract one on the path.
	for i := slot + 1; i <= f.n; i += i & -i {
		f.tree[i]--
	}
	return slot
}
