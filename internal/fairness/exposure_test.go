package fairness

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

func TestGroupExposureSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(20)
		g := 1 + rng.Intn(4)
		assign := make([]int, d)
		for i := range assign {
			assign[i] = rng.Intn(g)
		}
		gr := MustGroups(assign, g)
		p := perm.Random(d, rng)
		exp, err := GroupExposure(p, gr, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, e := range exp {
			if e < 0 {
				t.Fatalf("negative exposure %v", e)
			}
			sum += e
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("exposure sums to %v", sum)
		}
	}
}

func TestExposureFavorsTopRanks(t *testing.T) {
	// Two singleton groups: the top item's group must receive more
	// exposure than the bottom item's.
	gr := MustGroups([]int{0, 1}, 2)
	exp, err := GroupExposure(perm.Identity(2), gr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp[0] <= exp[1] {
		t.Fatalf("top group exposure %v not above bottom %v", exp[0], exp[1])
	}
}

func TestDisparateExposureBounds(t *testing.T) {
	// Segregated ranking: group at the bottom is under-exposed.
	gr := MustGroups([]int{0, 0, 1, 1}, 2)
	seg := perm.Identity(4)
	ratio, err := DisparateExposureAgainst(seg, gr, nil, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ratio >= 1 || ratio <= 0 {
		t.Fatalf("segregated disparate exposure = %v", ratio)
	}
	// A perfectly balanced two-item ranking per group at alternating
	// positions is closer to 1 than the segregated one.
	alt := perm.MustNew(0, 2, 1, 3)
	ratioAlt, err := DisparateExposureAgainst(alt, gr, nil, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ratioAlt <= ratio {
		t.Fatalf("alternating ratio %v not above segregated %v", ratioAlt, ratio)
	}
}

func TestExposureGap(t *testing.T) {
	gr := MustGroups([]int{0, 0, 1, 1}, 2)
	gap, err := ExposureGapAgainst(perm.Identity(4), gr, nil, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 0 || gap > 0.5 {
		t.Fatalf("segregated gap = %v", gap)
	}
	// Uniform discount makes exposure equal the population share: gap 0.
	unit := func(int) float64 { return 1 }
	gap, err = ExposureGapAgainst(perm.Identity(4), gr, unit, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-12 {
		t.Fatalf("unit-discount gap = %v", gap)
	}
}

func TestExposureErrors(t *testing.T) {
	gr := MustGroups([]int{0}, 1)
	if _, err := GroupExposure(perm.Identity(2), gr, nil); err == nil {
		t.Error("accepted ranking larger than groups")
	}
	bad := func(int) float64 { return math.NaN() }
	if _, err := GroupExposure(perm.Identity(1), gr, bad); err == nil {
		t.Error("accepted NaN discount")
	}
	neg := func(int) float64 { return -1 }
	if _, err := ExposureGapAgainst(perm.Identity(1), gr, neg, BaselinePrefix); err == nil {
		t.Error("accepted negative discount")
	}
}

func TestExposureEmptyRanking(t *testing.T) {
	gr := MustGroups([]int{0, 1}, 2)
	exp, err := GroupExposure(perm.Perm{}, gr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp[0] != 0 || exp[1] != 0 {
		t.Fatalf("empty ranking exposure = %v", exp)
	}
	// Prefix baseline: an empty ranking has no composition to violate,
	// so the metric is vacuously 1.
	ratio, err := DisparateExposureAgainst(perm.Perm{}, gr, nil, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Fatalf("empty ranking prefix-baseline disparate exposure = %v, want 1", ratio)
	}
	// Pool baseline: both groups hold population share 0.5 but receive
	// zero exposure → worst ratio 0.
	ratio, err = DisparateExposureAgainst(perm.Perm{}, gr, nil, BaselinePool)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 0 {
		t.Fatalf("empty ranking pool-baseline disparate exposure = %v, want 0", ratio)
	}
}

func TestExposureBaselinesCoincideOnFullRankings(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		d := 1 + rng.Intn(16)
		g := 1 + rng.Intn(4)
		assign := make([]int, d)
		for i := range assign {
			assign[i] = rng.Intn(g)
		}
		gr := MustGroups(assign, g)
		p := perm.Random(d, rng)
		for _, metric := range []func(perm.Perm, *Groups, ExposureDiscount, ExposureBaseline) (float64, error){
			DisparateExposureAgainst, ExposureGapAgainst,
		} {
			pool, err := metric(p, gr, nil, BaselinePool)
			if err != nil {
				t.Fatal(err)
			}
			prefix, err := metric(p, gr, nil, BaselinePrefix)
			if err != nil {
				t.Fatal(err)
			}
			if pool != prefix {
				t.Fatalf("baselines disagree on a full ranking: pool %v vs prefix %v", pool, prefix)
			}
		}
	}
}

// TestExposurePrefixBaselineRegression pins the bugfix: a top-k prefix
// drawn entirely from one part of the pool used to be scored against
// full-pool shares it could not attain. Both baselines stay available;
// each is pinned to its own exact value here.
func TestExposurePrefixBaselineRegression(t *testing.T) {
	// Pool of 6: items 0–2 group 0, items 3–5 group 1. The prefix ranks
	// items {0, 3} with a unit discount: within the prefix, exposure is
	// exactly proportional to its 50/50 composition.
	gr := MustGroups([]int{0, 0, 0, 1, 1, 1}, 2)
	prefix := perm.Perm{0, 3}
	unit := func(int) float64 { return 1 }

	gap, err := ExposureGapAgainst(prefix, gr, unit, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if gap != 0 {
		t.Fatalf("prefix-consistent gap = %v, want 0 (attention matches the prefix composition)", gap)
	}
	ratio, err := DisparateExposureAgainst(prefix, gr, unit, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Fatalf("prefix-consistent disparate exposure = %v, want 1", ratio)
	}

	// A skewed prefix {0, 1, 3} (two of group 0, one of group 1) under a
	// unit discount is still perfectly position-fair for its own
	// composition, but the pool baseline sees group 1 under-represented:
	// exposure 1/3 against pool share 1/2 → ratio 2/3, gap 1/6.
	skew := perm.Perm{0, 1, 3}
	ratio, err = DisparateExposureAgainst(skew, gr, unit, BaselinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Fatalf("prefix-consistent disparate exposure of skewed prefix = %v, want 1", ratio)
	}
	ratio, err = DisparateExposureAgainst(skew, gr, unit, BaselinePool)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-2.0/3) > 1e-15 {
		t.Fatalf("pool-baseline disparate exposure of skewed prefix = %v, want 2/3", ratio)
	}
	gap, err = ExposureGapAgainst(skew, gr, unit, BaselinePool)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-1.0/6) > 1e-15 {
		t.Fatalf("pool-baseline gap of skewed prefix = %v, want 1/6", gap)
	}
}
