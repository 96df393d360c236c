package fairness

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/perm"
)

func TestNewGroupsValidation(t *testing.T) {
	if _, err := NewGroups([]int{0, 1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGroups([]int{0, 2}, 2); err == nil {
		t.Error("accepted out-of-range group id")
	}
	if _, err := NewGroups([]int{0, -1}, 2); err == nil {
		t.Error("accepted negative group id")
	}
	if _, err := NewGroups(nil, 0); err == nil {
		t.Error("accepted zero groups")
	}
}

func TestGroupsAccessors(t *testing.T) {
	gr := MustGroups([]int{0, 1, 0, 2, 1, 0}, 3)
	if gr.NumGroups() != 3 || gr.NumItems() != 6 {
		t.Fatalf("NumGroups=%d NumItems=%d", gr.NumGroups(), gr.NumItems())
	}
	sizes := gr.Sizes()
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("Sizes = %v", sizes)
	}
	shares := gr.Shares()
	if math.Abs(shares[0]-0.5) > 1e-12 || math.Abs(shares[2]-1.0/6) > 1e-12 {
		t.Fatalf("Shares = %v", shares)
	}
	members := gr.Members()
	if len(members[0]) != 3 || members[0][0] != 0 || members[0][1] != 2 || members[0][2] != 5 {
		t.Fatalf("Members[0] = %v", members[0])
	}
	if gr.Of(3) != 2 {
		t.Fatalf("Of(3) = %d", gr.Of(3))
	}
}

func TestNewConstraintsValidation(t *testing.T) {
	if _, err := NewConstraints([]float64{0.3, 0.2}, []float64{0.6, 0.9}); err != nil {
		t.Fatal(err)
	}
	bad := []struct{ a, b []float64 }{
		{[]float64{0.5}, []float64{0.4}},        // α > β
		{[]float64{-0.1}, []float64{0.5}},       // α < 0
		{[]float64{0.1}, []float64{1.1}},        // β > 1
		{[]float64{0.1, 0.2}, []float64{0.5}},   // length mismatch
		{nil, nil},                              // empty
		{[]float64{math.NaN()}, []float64{0.5}}, // NaN
		{[]float64{0.2}, []float64{math.NaN()}}, // NaN
	}
	for i, c := range bad {
		if _, err := NewConstraints(c.a, c.b); err == nil {
			t.Errorf("case %d accepted invalid constraints", i)
		}
	}
}

func TestProportional(t *testing.T) {
	gr := MustGroups([]int{0, 0, 1, 1}, 2)
	c, err := Proportional(gr, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Alpha[0]-0.4) > 1e-12 || math.Abs(c.Beta[0]-0.6) > 1e-12 {
		t.Fatalf("Proportional bounds = %v / %v", c.Alpha, c.Beta)
	}
	// Clamping at the edges.
	gr2 := MustGroups([]int{0, 0, 0, 1}, 2)
	c2, err := Proportional(gr2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Beta[0] != 1 || c2.Alpha[1] != 0 {
		t.Fatalf("clamping failed: %v / %v", c2.Alpha, c2.Beta)
	}
	if _, err := Proportional(gr, -0.1); err == nil {
		t.Error("accepted negative tolerance")
	}
}

func TestBoundsTable(t *testing.T) {
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	b := c.Table(4)
	if b.K() != 4 || b.NumGroups() != 2 {
		t.Fatalf("table shape K=%d g=%d", b.K(), b.NumGroups())
	}
	// ℓ=1: ⌊0.5⌋=0, ⌈0.5⌉=1; ℓ=2: 1,1; ℓ=3: 1,2; ℓ=4: 2,2.
	wantLo := [][]int{{0, 0}, {1, 1}, {1, 1}, {2, 2}}
	wantHi := [][]int{{1, 1}, {1, 1}, {2, 2}, {2, 2}}
	for i := range wantLo {
		for g := 0; g < 2; g++ {
			if b.Lower[i][g] != wantLo[i][g] || b.Upper[i][g] != wantHi[i][g] {
				t.Fatalf("bounds at ℓ=%d: lo=%v hi=%v, want %v %v",
					i+1, b.Lower[i], b.Upper[i], wantLo[i], wantHi[i])
			}
		}
	}
	// The rows share two backing arrays: the allocation count does not
	// grow with k, and an append to one row cannot spill into the next,
	// nor an append to Lower into Upper.
	if allocs := testing.AllocsPerRun(10, func() { c.Table(1000) }); allocs > 3 {
		t.Errorf("Table(1000) made %v allocations, want ≤ 3", allocs)
	}
	_ = append(b.Lower[0], 7)
	_ = append(b.Upper[0], 7)
	_ = append(b.Lower, []int{7, 7})
	if b.Lower[1][0] != 1 || b.Upper[1][0] != 1 || b.Upper[0][0] != 1 {
		t.Errorf("an append overwrote a row: lo=%v hi=%v", b.Lower, b.Upper)
	}
}

func TestBoundsCloneAndClamp(t *testing.T) {
	c, _ := NewConstraints([]float64{0.5}, []float64{0.5})
	b := c.Table(3)
	cl := b.Clone()
	cl.Lower[0][0] = 99
	if b.Lower[0][0] == 99 {
		t.Fatal("Clone aliases the table")
	}
	_ = append(cl.Lower[1], 7)
	if cl.Lower[2][0] != 1 {
		t.Fatalf("an append to a cloned row overwrote the next: %v", cl.Lower[2])
	}
	cl.Upper[0][0] = -5
	cl.Clamp()
	if cl.Lower[0][0] != 1 || cl.Upper[0][0] != 1 {
		t.Fatalf("Clamp gave lo=%d hi=%d", cl.Lower[0][0], cl.Upper[0][0])
	}
}

func TestInfeasibleIndexSegregatedRanking(t *testing.T) {
	// Two groups of 5, strict proportional constraints (α=β=0.5).
	// Fully segregated ranking AAAAABBBBB.
	gr := MustGroups([]int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	p := perm.Identity(10)
	v, err := EvaluateViolations(p, gr, c.Table(10))
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed: prefix ℓ has countA=min(ℓ,5), countB=max(0,ℓ−5).
	// Lower viol when countB < ⌊ℓ/2⌋ or countA < ⌊ℓ/2⌋;
	// upper viol when countA > ⌈ℓ/2⌉ or countB > ⌈ℓ/2⌉.
	wantLower := 0
	wantUpper := 0
	for ell := 1; ell <= 10; ell++ {
		cA := ell
		if cA > 5 {
			cA = 5
		}
		cB := ell - cA
		lo := ell / 2
		hi := (ell + 1) / 2
		if cA < lo || cB < lo {
			wantLower++
		}
		if cA > hi || cB > hi {
			wantUpper++
		}
	}
	if v.LowerCount() != wantLower || v.UpperCount() != wantUpper {
		t.Fatalf("viol = (%d,%d), want (%d,%d)", v.LowerCount(), v.UpperCount(), wantLower, wantUpper)
	}
	if v.TwoSided() != wantLower+wantUpper {
		t.Fatalf("TwoSided = %d", v.TwoSided())
	}
	if v.UnionCount() > 10 {
		t.Fatalf("UnionCount exceeds length: %d", v.UnionCount())
	}
}

func TestAlternatingRankingIsFair(t *testing.T) {
	// ABABABABAB under α=β=0.5 never violates: counts differ by ≤ 1.
	gr := MustGroups([]int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	p := perm.MustNew(0, 5, 1, 6, 2, 7, 3, 8, 4, 9)
	ii, err := TwoSidedInfeasibleIndex(p, gr, c)
	if err != nil {
		t.Fatal(err)
	}
	if ii != 0 {
		t.Fatalf("alternating ranking II = %d, want 0", ii)
	}
	pct, err := PPfair(p, gr, c)
	if err != nil || pct != 100 {
		t.Fatalf("PPfair = %v, %v", pct, err)
	}
}

func TestPPfairDefinitions(t *testing.T) {
	gr := MustGroups([]int{0, 0, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	p := perm.Identity(4) // AABB
	// ℓ=1: cA=1 ≤ 1 ok, cB=0 ≥ 0 ok → fine.
	// ℓ=2: cA=2 > 1 upper viol; cB=0 < 1 lower viol.
	// ℓ=3: cA=2 ≤ ⌈1.5⌉=2 ok; cB=1 ≥ ⌊1.5⌋=1 ok.
	// ℓ=4: cA=2 = 2 ok; cB=2 ok.
	v, err := EvaluateViolations(p, gr, c.Table(4))
	if err != nil {
		t.Fatal(err)
	}
	if v.LowerCount() != 1 || v.UpperCount() != 1 {
		t.Fatalf("viol = (%d,%d)", v.LowerCount(), v.UpperCount())
	}
	pct, _ := PPfair(p, gr, c)
	if math.Abs(pct-50) > 1e-12 { // 100·(1−2/4): the two-sided index double counts prefix 2
		t.Fatalf("PPfair = %v", pct)
	}
	if v.UnionCount() != 1 { // only prefix 2 violated
		t.Fatalf("UnionCount = %d, want 1", v.UnionCount())
	}
}

func TestPPfairAt(t *testing.T) {
	gr := MustGroups([]int{0, 0, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	p := perm.Identity(4) // AABB: only prefix 2 violates (both sides)
	// First 2 prefixes: prefix 2 contributes 2 violations → 100·(1−2/2)=0.
	got, err := PPfairAt(p, gr, c, 2)
	if err != nil || got != 0 {
		t.Fatalf("PPfairAt(2) = %v, %v", got, err)
	}
	// Full length agrees with PPfair.
	full, _ := PPfair(p, gr, c)
	got, err = PPfairAt(p, gr, c, 4)
	if err != nil || got != full {
		t.Fatalf("PPfairAt(4) = %v, want %v (%v)", got, full, err)
	}
	// Prefix 1 alone is clean.
	got, err = PPfairAt(p, gr, c, 1)
	if err != nil || got != 100 {
		t.Fatalf("PPfairAt(1) = %v, %v", got, err)
	}
	if _, err := PPfairAt(p, gr, c, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := PPfairAt(p, gr, c, 5); err == nil {
		t.Error("accepted k>len")
	}
}

func TestPPfairEmptyRanking(t *testing.T) {
	gr := MustGroups([]int{0}, 1)
	c, _ := NewConstraints([]float64{0}, []float64{1})
	pct, err := PPfair(perm.Perm{}, gr, c)
	if err != nil || pct != 100 {
		t.Fatalf("PPfair(empty) = %v, %v", pct, err)
	}
}

func TestIsWeaklyKFair(t *testing.T) {
	gr := MustGroups([]int{0, 0, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	p := perm.MustNew(0, 1, 2, 3) // AABB
	// k=2 prefix = AA: group 1 count 0 < ⌊1⌋ → not weakly fair.
	ok, err := IsWeaklyKFair(p, gr, c, 2)
	if err != nil || ok {
		t.Fatalf("weak 2-fair = %v, %v", ok, err)
	}
	// k=4 prefix holds everything: 2,2 within bounds.
	ok, err = IsWeaklyKFair(p, gr, c, 4)
	if err != nil || !ok {
		t.Fatalf("weak 4-fair = %v, %v", ok, err)
	}
	if _, err := IsWeaklyKFair(p, gr, c, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := IsWeaklyKFair(p, gr, c, 5); err == nil {
		t.Error("accepted k>len")
	}
}

func TestEvaluateViolationsErrors(t *testing.T) {
	gr := MustGroups([]int{0, 1}, 2)
	c, _ := NewConstraints([]float64{0, 0}, []float64{1, 1})
	if _, err := EvaluateViolations(perm.Identity(2), gr, c.Table(1)); err == nil {
		t.Error("accepted short bounds table")
	}
	if _, err := EvaluateViolations(perm.Identity(3), gr, c.Table(3)); err == nil {
		t.Error("accepted groups smaller than ranking")
	}
}

func TestWeaklyFairRankingBasic(t *testing.T) {
	// Group A items 0-4 (high scores), group B items 5-9 (low scores).
	scores := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	gr := MustGroups([]int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.4, 0.4}, []float64{0.6, 0.6})
	k := 10
	p, err := WeaklyFairRanking(scores, gr, c, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, err := IsWeaklyKFair(p, gr, c, k)
	if err != nil || !ok {
		t.Fatalf("constructed ranking not weakly %d-fair: %v %v (p=%v)", k, ok, err, p)
	}
	// With k = d the whole set is the prefix; the score-sorted order must
	// survive inside the prefix (identity here).
	if !p.Equal(perm.Identity(10)) {
		t.Fatalf("k=d should give the score order, got %v", p)
	}
}

func TestWeaklyFairRankingPromotesMinority(t *testing.T) {
	// Minority group B has the lowest scores; weak 4-fairness with
	// α_B = 0.5 must pull two B items into the top 4.
	scores := []float64{10, 9, 8, 7, 2, 1}
	gr := MustGroups([]int{0, 0, 0, 0, 1, 1}, 2)
	c, _ := NewConstraints([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	p, err := WeaklyFairRanking(scores, gr, c, 4)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsWeaklyKFair(p, gr, c, 4)
	if err != nil || !ok {
		t.Fatalf("not weakly 4-fair: %v %v (p=%v)", ok, err, p)
	}
	// Top-4 must contain items 4 and 5; among selected, score order.
	top := map[int]bool{p[0]: true, p[1]: true, p[2]: true, p[3]: true}
	if !top[4] || !top[5] {
		t.Fatalf("minority items not promoted: %v", p)
	}
	// Expected: selected set {0,1,4,5} ordered 0,1,4,5; rest 2,3.
	want := perm.MustNew(0, 1, 4, 5, 2, 3)
	if !p.Equal(want) {
		t.Fatalf("ranking = %v, want %v", p, want)
	}
}

func TestWeaklyFairRankingInfeasible(t *testing.T) {
	scores := []float64{3, 2, 1}
	gr := MustGroups([]int{0, 0, 0}, 1)
	// Demand at least 80% of a group that is 100% of the pool is fine;
	// demand an upper bound of 0% makes k items impossible.
	cBad, _ := NewConstraints([]float64{0, 0}[:1], []float64{0, 0}[:1])
	if _, err := WeaklyFairRanking(scores, gr, cBad, 2); err == nil {
		t.Fatal("accepted upper bounds that admit no items")
	}
	// Lower bound above pool size: group 1 needs ⌊0.9·3⌋ = 2 but has 1.
	gr2 := MustGroups([]int{0, 0, 1}, 2)
	c2, _ := NewConstraints([]float64{0.9, 0.9}, []float64{1, 1})
	if _, err := WeaklyFairRanking(scores, gr2, c2, 3); err == nil {
		t.Fatal("accepted lower bound exceeding pool")
	}
	// k out of range.
	cOK, _ := NewConstraints([]float64{0}, []float64{1})
	if _, err := WeaklyFairRanking(scores, gr, cOK, 0); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := WeaklyFairRanking(scores, gr, cOK, 4); err == nil {
		t.Fatal("accepted k>d")
	}
	// Mismatched sizes.
	if _, err := WeaklyFairRanking(scores[:2], gr, cOK, 1); err == nil {
		t.Fatal("accepted scores/groups mismatch")
	}
	if _, err := WeaklyFairRanking(scores, gr, c2, 1); err == nil {
		t.Fatal("accepted groups/constraints mismatch")
	}
}

func TestWeaklyFairRankingRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 100; trial++ {
		d := 4 + rng.Intn(30)
		g := 2 + rng.Intn(3)
		assign := make([]int, d)
		for i := range assign {
			assign[i] = rng.Intn(g)
		}
		gr, err := NewGroups(assign, g)
		if err != nil {
			t.Fatal(err)
		}
		// Ensure every group nonempty to keep shares sane.
		scores := make([]float64, d)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		c, err := Proportional(gr, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(d)
		p, err := WeaklyFairRanking(scores, gr, c, k)
		if err != nil {
			continue // infeasible draws are fine; construction must not lie
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid perm: %v", err)
		}
		ok, err := IsWeaklyKFair(p, gr, c, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("claimed weakly fair but is not: d=%d g=%d k=%d p=%v", d, g, k, p)
		}
	}
}

// TestWeaklyFairRankingScoreOrder holds the score order WeaklyFairRanking
// builds on to a stable sort of the identity by non-increasing score, on
// scores drawn from a handful of values, ±0 and ±Inf among them, so that
// most comparisons tie. Bounds that bind nothing (α = 0, β = 1) make the
// ranking that order itself, whatever k is.
func TestWeaklyFairRankingScoreOrder(t *testing.T) {
	values := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(300)
		g := 1 + rng.Intn(3)
		assign := make([]int, d)
		scores := make([]float64, d)
		for i := range scores {
			assign[i] = rng.Intn(g)
			scores[i] = values[rng.Intn(len(values))]
		}
		alpha, beta := make([]float64, g), make([]float64, g)
		for i := range beta {
			beta[i] = 1
		}
		c, err := NewConstraints(alpha, beta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := WeaklyFairRanking(scores, MustGroups(assign, g), c, 1+rng.Intn(d))
		if err != nil {
			t.Fatal(err)
		}
		want := perm.Identity(d)
		sort.SliceStable(want, func(a, b int) bool { return scores[want[a]] > scores[want[b]] })
		if !got.Equal(want) {
			t.Fatalf("scores %v:\n got %v\nwant %v", scores, got, want)
		}
	}
}
