package mallows

import (
	"math/rand"

	"repro/internal/perm"
)

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
	t    *GeneralizedTables
	tree *freeSlots
}

// NewFastSampler returns a reusable Fenwick-tree sampler for the model.
// t may be nil, in which case tables are built; otherwise it must come
// from NewTables for the model's size and dispersion (see
// Model.SampleInto).
func (m *Model) NewFastSampler(t *GeneralizedTables) *FastSampler {
	if t == nil {
		t = m.Tables()
	} else {
		t.checkModel(m)
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
