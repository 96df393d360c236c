package pl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// plLogWeightGrids returns log-weight vectors covering the regimes the
// truncated sampler must agree with the full path on: decaying chains
// (the engine's -θ·rank schedule) at several strengths including 0
// (uniform: every ranking decided purely by the Gumbel noise), steep
// decay (near-deterministic order), and vectors with ±Inf entries where
// utilities tie and only the index tie-break orders the items.
func plLogWeightGrids(n int, rng *rand.Rand) [][]float64 {
	var grids [][]float64
	for _, theta := range []float64{0, 1e-9, 0.05, 0.5, 1, 3, 25, 700} {
		logw := make([]float64, n)
		for i := range logw {
			logw[i] = -theta * float64(i)
		}
		grids = append(grids, logw)
	}
	// Random log-weights, shuffled so index order carries no signal.
	logw := make([]float64, n)
	for i := range logw {
		logw[i] = rng.NormFloat64() * 3
	}
	grids = append(grids, logw)
	// ±Inf ties: several items pinned to +Inf (always on top, ordered by
	// index) and several to −Inf (always at the bottom, ordered by index).
	if n >= 2 {
		tied := make([]float64, n)
		for i := range tied {
			switch {
			case i%3 == 0:
				tied[i] = math.Inf(1)
			case i%3 == 1:
				tied[i] = math.Inf(-1)
			default:
				tied[i] = float64(i % 5)
			}
		}
		grids = append(grids, tied)
	}
	return grids
}

// The delivered top-k prefix must be bit-identical to the first k
// entries of the full draw for equal seeds, across sizes, log-weight
// shapes (including ±Inf ties), and k values straddling every edge.
func TestPLSampleTopKPrefixBitIdentity(t *testing.T) {
	gridRng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 7, 25, 64, 200} {
		for gi, logw := range plLogWeightGrids(n, gridRng) {
			ks := []int{0, 1, 2, n / 2, n - 1, n, n + 1, n + 7}
			for _, k := range ks {
				if k < 0 {
					continue
				}
				for seed := int64(0); seed < 5; seed++ {
					full := SampleLogWeights(logw, rand.New(rand.NewSource(seed)))
					s := NewScratch(n)
					got := SampleTopKInto(logw, k, make(perm.Perm, 0, n), s, rand.New(rand.NewSource(seed)))
					want := k
					if want > n {
						want = n
					}
					if len(got) != want {
						t.Fatalf("n=%d grid=%d k=%d seed=%d: prefix length %d, want %d",
							n, gi, k, seed, len(got), want)
					}
					for i := range got {
						if got[i] != full[i] {
							t.Fatalf("n=%d grid=%d k=%d seed=%d: prefix[%d] = %d, full draw has %d\nprefix: %v\nfull:   %v",
								n, gi, k, seed, i, got[i], full[i], got, full[:want])
						}
					}
				}
			}
		}
	}
}

// SampleLogWeightsInto is the pooled-scratch rebuild of
// SampleLogWeights: for equal seeds the two must produce bit-identical
// rankings and leave the RNG in the same position.
func TestPLSampleLogWeightsIntoBitIdentity(t *testing.T) {
	gridRng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, 3, 7, 25, 64, 200, 513} {
		for gi, logw := range plLogWeightGrids(n, gridRng) {
			for seed := int64(0); seed < 5; seed++ {
				rngA := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))
				want := SampleLogWeights(logw, rngA)
				s := NewScratch(n)
				got := SampleLogWeightsInto(logw, make(perm.Perm, 0, n), s, rngB)
				if len(got) != len(want) {
					t.Fatalf("n=%d grid=%d seed=%d: length %d, want %d", n, gi, seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d grid=%d seed=%d: pos %d = %d, want %d", n, gi, seed, i, got[i], want[i])
					}
				}
				if a, b := rngA.Int63(), rngB.Int63(); a != b {
					t.Fatalf("n=%d grid=%d seed=%d: RNG streams diverged (%d vs %d)", n, gi, seed, a, b)
				}
			}
		}
	}
}

// The sort-stability regression: with tied utilities (±Inf log-weights)
// the drawn ranking must order tied items by ascending index — the
// documented strict total order — on every path.
func TestPLTiedWeightsDeterministicOrder(t *testing.T) {
	const n = 40
	logw := make([]float64, n)
	for i := range logw {
		if i%2 == 0 {
			logw[i] = math.Inf(1)
		} else {
			logw[i] = math.Inf(-1)
		}
	}
	check := func(name string, p perm.Perm) {
		t.Helper()
		// First half of the ranking: the +Inf items (even indices) in
		// ascending index order; second half: the −Inf items likewise.
		for i := 0; i < n/2; i++ {
			if p[i] != 2*i {
				t.Fatalf("%s: pos %d = %d, want %d (tied +Inf items must order by index)", name, i, p[i], 2*i)
			}
			if p[n/2+i] != 2*i+1 {
				t.Fatalf("%s: pos %d = %d, want %d (tied −Inf items must order by index)", name, n/2+i, p[n/2+i], 2*i+1)
			}
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		check("SampleLogWeights", SampleLogWeights(logw, rand.New(rand.NewSource(seed))))
		s := NewScratch(n)
		check("SampleLogWeightsInto",
			SampleLogWeightsInto(logw, make(perm.Perm, 0, n), s, rand.New(rand.NewSource(seed))))
		check("SampleTopKInto",
			SampleTopKInto(logw, n, make(perm.Perm, 0, n), s, rand.New(rand.NewSource(seed))))
	}
}

// Truncated and full draws must consume the RNG stream identically: one
// draw from each on equal seeds leaves both generators in the same
// position, for every k including 0.
func TestPLSampleTopKStreamIdentity(t *testing.T) {
	const n = 129 // not a multiple of the uniform block
	logw := make([]float64, n)
	for i := range logw {
		logw[i] = -0.3 * float64(i)
	}
	for _, k := range []int{0, 1, 5, n / 2, n} {
		rngFull := rand.New(rand.NewSource(42))
		rngTopK := rand.New(rand.NewSource(42))
		SampleLogWeights(logw, rngFull)
		s := NewScratch(n)
		SampleTopKInto(logw, k, make(perm.Perm, 0, n), s, rngTopK)
		if a, b := rngFull.Int63(), rngTopK.Int63(); a != b {
			t.Fatalf("k=%d: RNG streams diverged after one draw (%d vs %d)", k, a, b)
		}
	}
}

// A sequence of draws from one shared stream stays aligned draw for
// draw with the full path — the best-of-m loop's actual usage.
func TestPLSampleTopKSequentialDraws(t *testing.T) {
	const n, k, draws = 60, 8, 12
	logw := make([]float64, n)
	for i := range logw {
		logw[i] = -0.5 * float64(i)
	}
	rngFull := rand.New(rand.NewSource(99))
	rngTopK := rand.New(rand.NewSource(99))
	s := NewScratch(n)
	out := make(perm.Perm, 0, n)
	for d := 0; d < draws; d++ {
		full := SampleLogWeights(logw, rngFull)
		out = SampleTopKInto(logw, k, out, s, rngTopK)
		for i := range out {
			if out[i] != full[i] {
				t.Fatalf("draw %d: prefix[%d] = %d, full draw has %d", d, i, out[i], full[i])
			}
		}
	}
}

// The delivered prefix is always a valid partial permutation: k distinct
// items from {0,…,n−1}.
func TestPLSampleTopKValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50
	logw := make([]float64, n)
	for i := range logw {
		logw[i] = rng.NormFloat64()
	}
	s := NewScratch(n)
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(n + 2)
		got := SampleTopKInto(logw, k, make(perm.Perm, 0, n), s, rng)
		want := k
		if want > n {
			want = n
		}
		if len(got) != want {
			t.Fatalf("k=%d: length %d, want %d", k, len(got), want)
		}
		seen := make(map[int]bool, len(got))
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("k=%d: item %d outside [0, %d)", k, v, n)
			}
			if seen[v] {
				t.Fatalf("k=%d: duplicate item %d in prefix %v", k, v, got)
			}
			seen[v] = true
		}
	}
}

// With a pre-sized Scratch and enough output capacity, neither the
// truncated nor the rebuilt full-length draw allocates.
func TestPLSampleZeroAlloc(t *testing.T) {
	const n, k = 4096, 16
	logw := make([]float64, n)
	for i := range logw {
		logw[i] = -0.01 * float64(i)
	}
	s := NewScratch(n)
	out := make(perm.Perm, 0, n)
	rng := rand.New(rand.NewSource(5))
	if allocs := testing.AllocsPerRun(200, func() {
		out = SampleTopKInto(logw, k, out, s, rng)
	}); allocs != 0 {
		t.Fatalf("SampleTopKInto allocates %.1f times per draw, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		out = SampleLogWeightsInto(logw, out, s, rng)
	}); allocs != 0 {
		t.Fatalf("SampleLogWeightsInto allocates %.1f times per draw, want 0", allocs)
	}
}

// A zero-value Scratch must work (growing its buffers on first use) so
// callers without sizing information still get correct draws.
func TestPLScratchZeroValue(t *testing.T) {
	const n, k = 30, 6
	logw := make([]float64, n)
	for i := range logw {
		logw[i] = -0.2 * float64(i)
	}
	for seed := int64(0); seed < 3; seed++ {
		full := SampleLogWeights(logw, rand.New(rand.NewSource(seed)))
		var s Scratch
		got := SampleTopKInto(logw, k, nil, &s, rand.New(rand.NewSource(seed)))
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("seed %d: prefix[%d] = %d, full draw has %d", seed, i, got[i], full[i])
			}
		}
		var s2 Scratch
		fullInto := SampleLogWeightsInto(logw, nil, &s2, rand.New(rand.NewSource(seed)))
		for i := range fullInto {
			if fullInto[i] != full[i] {
				t.Fatalf("seed %d: full-into pos %d = %d, want %d", seed, i, fullInto[i], full[i])
			}
		}
	}
}
