package quality

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDCGKnownValue(t *testing.T) {
	// Ranking ⟨0 1 2⟩, scores 3,2,1:
	// DCG = 3/log2(2) + 2/log2(3) + 1/log2(4) = 3 + 2/1.58496... + 0.5
	s := Scores{3, 2, 1}
	got, err := DCG(perm.Identity(3), s, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 + 2/math.Log2(3) + 0.5
	if !almostEqual(got, want) {
		t.Fatalf("DCG = %v, want %v", got, want)
	}
}

func TestCGIsUnweightedSum(t *testing.T) {
	s := Scores{1, 10, 100}
	got, err := CG(perm.MustNew(2, 0, 1), s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 101) {
		t.Fatalf("CG = %v, want 101", got)
	}
}

func TestIdealSortsDescending(t *testing.T) {
	s := Scores{1, 5, 3, 5}
	ideal := Ideal(perm.Identity(4), s)
	// Stable: both items with score 5 keep identity order (1 before 3).
	want := perm.MustNew(1, 3, 2, 0)
	if !ideal.Equal(want) {
		t.Fatalf("Ideal = %v, want %v", ideal, want)
	}
}

func TestNDCGBoundsAndOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(20)
		s := make(Scores, d)
		for i := range s {
			s[i] = rng.Float64() * 10
		}
		p := perm.Random(d, rng)
		k := 1 + rng.Intn(d)
		v, err := NDCG(p, s, k)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || v > 1+1e-12 {
			t.Fatalf("NDCG out of [0,1]: %v", v)
		}
		// The ideal ranking achieves NDCG 1.
		one, err := NDCG(Ideal(p, s), s, k)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(one, 1) {
			t.Fatalf("NDCG of ideal = %v", one)
		}
	}
}

func TestNDCGAllZeroScores(t *testing.T) {
	v, err := NDCG(perm.Identity(5), make(Scores, 5), 5)
	if err != nil || v != 1 {
		t.Fatalf("NDCG on zero scores = %v, %v", v, err)
	}
}

func TestPrefixClampingAndErrors(t *testing.T) {
	s := Scores{1, 2, 3}
	full, err := DCG(perm.Identity(3), s, 10)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := DCG(perm.Identity(3), s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(full, exact) {
		t.Fatalf("k clamping broken: %v vs %v", full, exact)
	}
	zero, err := DCG(perm.Identity(3), s, 0)
	if err != nil || zero != 0 {
		t.Fatalf("DCG(k=0) = %v, %v", zero, err)
	}
	if _, err := DCG(perm.Identity(3), s, -1); err == nil {
		t.Fatal("DCG accepted negative k")
	}
	if _, err := DCG(perm.Identity(4), s, 2); err == nil {
		t.Fatal("DCG accepted ranking longer than scores")
	}
}

func TestScoresValidate(t *testing.T) {
	if err := (Scores{1, 2, 3}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Scores{1, math.NaN()}).Validate(); err == nil {
		t.Fatal("Validate accepted NaN")
	}
}

func TestExtraScoresAllowed(t *testing.T) {
	// More scores than ranked items: the ranking names a subset universe
	// of size 2 over item ids {0,1} while scores covers 5 items.
	s := Scores{9, 4, 1, 1, 1}
	v, err := NDCG(perm.MustNew(1, 0), s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// DCG = 4/log2(2) + 9/log2(3); IDCG = 9/log2(2) + 4/log2(3).
	want := (4 + 9/math.Log2(3)) / (9 + 4/math.Log2(3))
	if !almostEqual(v, want) {
		t.Fatalf("NDCG = %v, want %v", v, want)
	}
}

func TestQuickSwapTowardIdealImprovesDCG(t *testing.T) {
	// Swapping an adjacent out-of-score-order pair never decreases DCG.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(16)
		s := make(Scores, d)
		for i := range s {
			s[i] = rng.Float64()
		}
		p := perm.Random(d, rng)
		before, _ := DCG(p, s, d)
		// Find an adjacent pair with lower score first; swap it.
		for r := 0; r < d-1; r++ {
			if s[p[r]] < s[p[r+1]] {
				q := p.Clone()
				q.Swap(r, r+1)
				after, _ := DCG(q, s, d)
				return after >= before-1e-12
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIdealMatchesStableSort holds Ideal to sort.SliceStable on random
// permutations of scores drawn from a handful of values, ±0 and ±Inf
// among them, so that most comparisons tie and ties must keep p's order.
func TestIdealMatchesStableSort(t *testing.T) {
	values := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1)}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(300)
		s := make(Scores, n)
		for i := range s {
			s[i] = values[rng.Intn(len(values))]
		}
		p := perm.Perm(rng.Perm(n))
		orig := p.Clone()
		want := p.Clone()
		sort.SliceStable(want, func(a, b int) bool { return s[want[a]] > s[want[b]] })
		if got := Ideal(p, s); !got.Equal(want) {
			t.Fatalf("scores %v, p %v:\n got %v\nwant %v", s, p, got, want)
		}
		if !p.Equal(orig) {
			t.Fatal("Ideal reordered its input")
		}
	}
}
