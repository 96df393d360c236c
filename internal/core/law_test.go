package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/perm"
)

// topKLaw returns, for every central position i, the exact probability
// that a repeated-insertion draw whose step j has dispersion thetas[j−1]
// puts the item at central position i in its top k. It shares no
// arithmetic with the samplers: each step's displacement law
// P(V_j = v) ∝ e^{−θ_j·v} is summed term by term, with no closed-form
// CDF and no inversion, so a uniform step needs no special case.
//
// The item at central position i enters at step i+1, at index i − V.
// Every later step j inserts at index j−1−V_j, and an insertion at or
// above the item pushes it down one. Once below the window it never
// returns, so a dynamic program over the steps after i, with the
// item's window index as the state, gives the law in O(n·k) per item.
func topKLaw(thetas []float64, k int) []float64 {
	n := len(thetas)
	weight := func(j, v int) float64 { return math.Exp(-thetas[j-1] * float64(v)) }
	// z[j] normalizes step j; push[j][s] = P(step j inserts at index ≤ s).
	z := make([]float64, n+1)
	push := make([][]float64, n+1)
	for j := 1; j <= n; j++ {
		for v := 0; v < j; v++ {
			z[j] += weight(j, v)
		}
		push[j] = make([]float64, k)
		var tail float64
		for s := range push[j] {
			if v := j - 1 - s; v >= 0 {
				tail += weight(j, v)
			}
			push[j][s] = tail / z[j]
		}
	}
	law := make([]float64, n)
	at, next := make([]float64, k), make([]float64, k)
	for i := range law {
		for s := range at {
			at[s] = 0
			if s <= i {
				at[s] = weight(i+1, i-s) / z[i+1]
			}
		}
		for j := i + 2; j <= n; j++ {
			for s := range at {
				next[s] = at[s] * (1 - push[j][s])
				if s > 0 {
					next[s] += at[s-1] * push[j][s-1]
				}
			}
			at, next = next, at
		}
		for _, p := range at {
			law[i] += p
		}
	}
	return law
}

// The oracle itself, on cases small enough to enumerate: at θ = 0 every
// position is in the top k with probability k/n, and at n = 3 the
// Mallows law over the six permutations gives the top-1 law by hand.
func TestTopKLawOracle(t *testing.T) {
	law := topKLaw(make([]float64, 12), 4)
	for i, p := range law {
		if math.Abs(p-4.0/12) > 1e-12 {
			t.Fatalf("uniform law: position %d in the top 4 with probability %v, want 1/3", i, p)
		}
	}
	// Kendall tau distances from the center 0 1 2: position 0 is first in
	// 012 (0) and 021 (1), position 1 in 102 (1) and 120 (2), position 2
	// in 201 (2) and 210 (3).
	q := math.Exp(-0.7)
	zz := 1 + 2*q + 2*q*q + q*q*q
	want := []float64{(1 + q) / zz, (q + q*q) / zz, (q*q + q*q*q) / zz}
	for i, p := range topKLaw([]float64{0.7, 0.7, 0.7}, 1) {
		if math.Abs(p-want[i]) > 1e-12 {
			t.Fatalf("n = 3, θ = 0.7: position %d first with probability %v, want %v", i, p, want[i])
		}
	}
}

// TestTopKDrawsFollowExactLaw checks what the engine draws against the
// exact law of the model: how often each central position reaches the
// top k over draws on consecutive request seeds 0…draws−1, through the
// one best-of loop, against topKLaw. It covers the Mallows axis at the
// uniform limit and at a small dispersion, and the generalized axis,
// whose θ·0.97^(j−1) schedule reaches the uniform limit (e^{−θ_j}
// rounding to 1) after ~1,230 steps at n = 1,500. checkLaw's bounds
// fail on correlated per-seed streams or a mishandled uniform limit.
func TestTopKDrawsFollowExactLaw(t *testing.T) {
	const n, k, draws = 1500, 10, 20000
	for _, c := range []struct {
		name  string
		axis  Noise
		theta float64
		decay float64
	}{
		{"mallows θ=0", NoiseMallows, 0, 1},
		{"mallows θ=0.05", NoiseMallows, 0.05, 1},
		{"gmallows θ=1", NoiseGMallows, 1, 0.97},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			thetas := make([]float64, n)
			for j := range thetas {
				thetas[j] = c.theta * math.Pow(c.decay, float64(j))
			}
			law := topKLaw(thetas, k)
			var total float64
			for _, p := range law {
				total += p
			}
			if math.Abs(total-k) > 1e-9 {
				t.Fatalf("law sums to %v, want %d", total, k)
			}
			var e Engine
			p, err := e.Plan(c.axis, perm.Identity(n), c.theta, k)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			counts := make([]int, n)
			for seed := int64(0); seed < draws; seed++ {
				for _, item := range draw(t, &e, p, seed) {
					counts[item]++
				}
			}
			checkLaw(t, law, counts, draws)
		})
	}
}

// draw is the one draw of request seed through the best-of loop at
// m = 1: the ranking, or its top-k prefix on a truncated plan.
func draw(t *testing.T, e *Engine, p Plan, seed int64) perm.Perm {
	t.Helper()
	out, _, err := e.Best(context.Background(), p, nil, SelectFirst, 1, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkLaw compares counts of an event per cell over draws against the
// exact probabilities law. Cells expected at least 5 times stand alone
// and the rest are pooled into one; the worst cell's |z| must stay
// within 5 and the Pearson χ² within 5 sd of its mean, Σ(1 − p) over
// the cells, which is cells − 1 when the events partition every draw.
func checkLaw(t *testing.T, law []float64, counts []int, draws int) {
	t.Helper()
	const maxZ, maxChiSD = 5, 5
	n := float64(draws)
	var restP float64
	var restN, cells int
	var chi2, mean, worstZ float64
	worstAt := -1
	cell := func(at int, p float64, got int) {
		exp := n * p
		d := float64(got) - exp
		chi2 += d * d / exp
		mean += 1 - p
		cells++
		if z := d / math.Sqrt(exp*(1-p)); math.Abs(z) > math.Abs(worstZ) {
			worstZ, worstAt = z, at
		}
	}
	for i, p := range law {
		if n*p >= 5 {
			cell(i, p, counts[i])
		} else {
			restP += p
			restN += counts[i]
		}
	}
	if n*restP >= 5 {
		cell(-1, restP, restN)
	}
	sd := math.Sqrt(2 * mean)
	t.Logf("%d cells: worst z = %.2f at cell %d, χ² = %.0f (mean %.0f, sd %.1f)", cells, worstZ, worstAt, chi2, mean, sd)
	if math.Abs(worstZ) > maxZ {
		t.Errorf("cell %d (-1: pooled tail) at z = %.2f from its exact law", worstAt, worstZ)
	}
	if math.Abs(chi2-mean) > maxChiSD*sd {
		t.Errorf("χ² = %.0f over %d cells, %.1f sd from its mean %.0f", chi2, cells, (chi2-mean)/sd, mean)
	}
}

// plWeights returns, by item, the weights of the Plackett–Luce law
// around center: the item at central rank r has weight w = e^{−θ·r}, so
// it is first with probability w/Σw, and a whole ranking π has
// probability Π_j w(π_j) / Σ_{l≥j} w(π_l).
func plWeights(center perm.Perm, theta float64) []float64 {
	w := make([]float64, len(center))
	for r, item := range center {
		w[item] = math.Exp(-theta * float64(r))
	}
	return w
}

// TestPLDrawsFollowExactLaw is the Plackett–Luce half of the exact-law
// oracle: draws through the one best-of loop on consecutive request
// seeds, against the law computed from the weights alone. At n = 1,000
// it checks the top-1 law on the full plan and on the top_k = 10 plan,
// whose lazy draw must put the same item first; at n = 5 it checks the
// law of the whole ranking over all 120 permutations. θ = 0.01 spreads
// the first place over hundreds of items and θ = 1 concentrates it.
func TestPLDrawsFollowExactLaw(t *testing.T) {
	const draws = 20000
	for _, theta := range []float64{0.01, 1} {
		for _, c := range []struct {
			name  string
			n, k  int
			whole bool // the law of the whole ranking, not only its first item
		}{
			{"top-1, full plan", 1000, 1000, false},
			{"top-1, top_k=10 plan", 1000, 10, false},
			{"whole law, n=5", 5, 5, true},
		} {
			t.Run(fmt.Sprintf("%s θ=%v", c.name, theta), func(t *testing.T) {
				t.Parallel()
				// A reversed center checks that weights follow central
				// rank, not item index.
				center := perm.Identity(c.n).Reverse()
				w := plWeights(center, theta)
				var e Engine
				p, err := e.Plan(NoisePlackettLuce, center, theta, c.k)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Release()
				if !c.whole {
					var total float64
					for _, wi := range w {
						total += wi
					}
					law := make([]float64, c.n)
					for i, wi := range w {
						law[i] = wi / total
					}
					counts := make([]int, c.n)
					for seed := int64(0); seed < draws; seed++ {
						counts[draw(t, &e, p, seed)[0]]++
					}
					checkLaw(t, law, counts, draws)
					return
				}
				var law []float64
				perm.All(c.n, func(pi perm.Perm) bool {
					prob := 1.0
					for j := range pi {
						var rest float64
						for _, item := range pi[j:] {
							rest += w[item]
						}
						prob *= w[pi[j]] / rest
					}
					law = append(law, prob)
					return true
				})
				counts := make([]int, len(law))
				for seed := int64(0); seed < draws; seed++ {
					i, err := draw(t, &e, p, seed).LexRank()
					if err != nil {
						t.Fatal(err)
					}
					counts[i]++
				}
				checkLaw(t, law, counts, draws)
			})
		}
	}
}
