package fairness

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestNewProbGroupsValidation(t *testing.T) {
	if _, err := NewProbGroups([][]float64{{0.3, 0.7}, {1, 0}}, 2); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		dist [][]float64
		g    int
	}{
		{"zero groups", [][]float64{{1}}, 0},
		{"short row", [][]float64{{1}}, 2},
		{"long row", [][]float64{{0.5, 0.5, 0}}, 2},
		{"NaN mass", [][]float64{{math.NaN(), 1}}, 2},
		{"negative mass", [][]float64{{-0.1, 1.1}}, 2},
		{"above one", [][]float64{{1.2, -0.2}}, 2},
		{"sum below one", [][]float64{{0.3, 0.3}}, 2},
		{"sum above one", [][]float64{{0.8, 0.8}}, 2},
	}
	for _, tc := range bad {
		if _, err := NewProbGroups(tc.dist, tc.g); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// randomGroups draws a random deterministic Groups for the equivalence
// trials.
func randomGroups(rng *rand.Rand) *Groups {
	d := 1 + rng.Intn(24)
	g := 1 + rng.Intn(5)
	assign := make([]int, d)
	for i := range assign {
		assign[i] = rng.Intn(g)
	}
	return MustGroups(assign, g)
}

// TestOneHotEquivalence is the bit-identity suite: every ProbGroups
// metric evaluated on the one-hot lift of a deterministic Groups must
// equal the Groups metric exactly — not approximately — across random
// pools, rankings, prefixes, discounts, and tolerances.
func TestOneHotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	unit := func(int) float64 { return 1 }
	discounts := []ExposureDiscount{nil, unit, LogExposure}
	for trial := 0; trial < 100; trial++ {
		gr := randomGroups(rng)
		pg := OneHot(gr)
		d := gr.NumItems()

		// Shares and sizes.
		shares, eshares := gr.Shares(), pg.ExpectedShares()
		for g := range shares {
			if shares[g] != eshares[g] {
				t.Fatalf("shares[%d]: %v vs expected %v", g, shares[g], eshares[g])
			}
		}
		sizes, esizes := gr.Sizes(), pg.ExpectedSizes()
		for g := range sizes {
			if float64(sizes[g]) != esizes[g] {
				t.Fatalf("sizes[%d]: %d vs expected %v", g, sizes[g], esizes[g])
			}
		}

		// Constraints from shares.
		tol := rng.Float64() * 0.3
		cons, err := Proportional(gr, tol)
		if err != nil {
			t.Fatal(err)
		}
		pcons, err := ProportionalProb(pg, tol)
		if err != nil {
			t.Fatal(err)
		}
		for g := range cons.Alpha {
			if cons.Alpha[g] != pcons.Alpha[g] || cons.Beta[g] != pcons.Beta[g] {
				t.Fatalf("constraints diverge at group %d: (%v,%v) vs (%v,%v)",
					g, cons.Alpha[g], cons.Beta[g], pcons.Alpha[g], pcons.Beta[g])
			}
		}

		// Rankings: a full ranking and a strict prefix of it.
		full := perm.Random(d, rng)
		prefixLen := 1 + rng.Intn(d)
		prefix := full[:prefixLen]
		for _, p := range []perm.Perm{full, prefix} {
			// Violations and PPfair.
			b := cons.Table(d)
			v, err := EvaluateViolations(p, gr, b)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := EvaluateExpectedViolations(p, pg, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v.Lower {
				if v.Lower[i] != ev.Lower[i] || v.Upper[i] != ev.Upper[i] {
					t.Fatalf("violations diverge at prefix %d", i+1)
				}
			}
			k := 1 + rng.Intn(len(p))
			pp, err := PPfairAt(p, gr, cons, k)
			if err != nil {
				t.Fatal(err)
			}
			epp, err := ExpectedPPfairAt(p, pg, cons, k)
			if err != nil {
				t.Fatal(err)
			}
			if pp != epp {
				t.Fatalf("PPfairAt(k=%d): %v vs expected %v", k, pp, epp)
			}

			// Exposure under every discount and both baselines.
			for _, disc := range discounts {
				exp, err := GroupExposure(p, gr, disc)
				if err != nil {
					t.Fatal(err)
				}
				eexp, err := ExpectedGroupExposure(p, pg, disc)
				if err != nil {
					t.Fatal(err)
				}
				for g := range exp {
					if exp[g] != eexp[g] {
						t.Fatalf("exposure[%d]: %v vs expected %v", g, exp[g], eexp[g])
					}
				}
				for _, baseline := range []ExposureBaseline{BaselinePrefix, BaselinePool} {
					de, err := DisparateExposureAgainst(p, gr, disc, baseline)
					if err != nil {
						t.Fatal(err)
					}
					ede, err := ExpectedDisparateExposureAgainst(p, pg, disc, baseline)
					if err != nil {
						t.Fatal(err)
					}
					if de != ede {
						t.Fatalf("disparate exposure (baseline %d): %v vs expected %v", baseline, de, ede)
					}
					gap, err := ExposureGapAgainst(p, gr, disc, baseline)
					if err != nil {
						t.Fatal(err)
					}
					egap, err := ExpectedExposureGapAgainst(p, pg, disc, baseline)
					if err != nil {
						t.Fatal(err)
					}
					if gap != egap {
						t.Fatalf("exposure gap (baseline %d): %v vs expected %v", baseline, gap, egap)
					}
				}
			}
		}
	}
}

// TestExpectedViolationsFractional exercises the genuinely probabilistic
// regime: expected counts between the bounds clear constraints a hard
// assignment of the same items could violate.
func TestExpectedViolationsFractional(t *testing.T) {
	// Two items, both 50/50 over two groups: expected prefix counts are
	// (0.5, 0.5) then (1, 1).
	pg := MustProbGroups([][]float64{{0.5, 0.5}, {0.5, 0.5}}, 2)
	cons, err := NewConstraints([]float64{0.4, 0.4}, []float64{0.6, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// Bounds at ell=1: lower ⌊0.4⌋=0, upper ⌈0.6⌉=1; at ell=2: lower 0,
	// upper 2. Expected counts sit inside everywhere → zero violations.
	v, err := EvaluateExpectedViolations(perm.Identity(2), pg, cons.Table(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.TwoSided() != 0 {
		t.Fatalf("expected violations = %d, want 0", v.TwoSided())
	}
	pp, err := ExpectedPPfairAt(perm.Identity(2), pg, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pp != 100 {
		t.Fatalf("expected PPfair = %v, want 100", pp)
	}
	// Tighten the lower bounds so the fractional counts fall short: with
	// α = 1 for both groups the ell=1 lower bound is ⌊1⌋ = 1, but the
	// expected count of either group after one fractional item is 0.5.
	tight, err := NewConstraints([]float64{1, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	v, err = EvaluateExpectedViolations(perm.Identity(2), pg, tight.Table(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.LowerCount() == 0 {
		t.Fatal("tight lower bounds not violated by fractional expected counts")
	}
	if _, err := EvaluateExpectedViolations(perm.Identity(3), pg, tight.Table(3)); err == nil {
		t.Error("accepted ranking larger than memberships")
	}
}
