package fairrank

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
)

// pool builds n candidates in two groups where group "a" holds the top
// scores — the biased-scores scenario of the paper's introduction.
func pool(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		g := "a"
		if i >= n/2 {
			g = "b"
		}
		out[i] = Candidate{
			ID:    "c" + strconv.Itoa(i),
			Score: float64(n - i),
			Group: g,
			Attrs: map[string]string{"region": []string{"north", "south", "east"}[i%3]},
		}
	}
	return out
}

func TestRankAllAlgorithms(t *testing.T) {
	cands := pool(12)
	algos := []Algorithm{
		AlgorithmMallows, AlgorithmMallowsBest, AlgorithmDetConstSort,
		AlgorithmIPF, AlgorithmGrBinary, AlgorithmILP, AlgorithmScoreSorted,
	}
	for _, a := range algos {
		ranked, err := Rank(cands, Config{Algorithm: a, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if len(ranked) != len(cands) {
			t.Fatalf("%s: returned %d candidates", a, len(ranked))
		}
		seen := map[string]bool{}
		for _, c := range ranked {
			if seen[c.ID] {
				t.Fatalf("%s: duplicate %q in output", a, c.ID)
			}
			seen[c.ID] = true
		}
	}
}

func TestRankDefaultsAndDeterminism(t *testing.T) {
	cands := pool(10)
	a, err := Rank(cands, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rank(cands, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("same seed, different rankings")
		}
	}
}

func TestRankDoesNotMutateInput(t *testing.T) {
	cands := pool(8)
	want := make([]Candidate, len(cands))
	copy(want, cands)
	if _, err := Rank(cands, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if cands[i].ID != want[i].ID || cands[i].Score != want[i].Score {
			t.Fatal("Rank mutated its input")
		}
	}
}

func TestRankValidation(t *testing.T) {
	if _, err := Rank(nil, Config{}); err == nil {
		t.Error("accepted empty pool")
	}
	if _, err := Rank([]Candidate{{ID: "", Score: 1, Group: "a"}}, Config{}); err == nil {
		t.Error("accepted empty ID")
	}
	if _, err := Rank([]Candidate{
		{ID: "x", Score: 1, Group: "a"},
		{ID: "x", Score: 2, Group: "b"},
	}, Config{}); err == nil {
		t.Error("accepted duplicate IDs")
	}
	if _, err := Rank([]Candidate{{ID: "x", Score: 1, Group: ""}}, Config{}); err == nil {
		t.Error("accepted empty group")
	}
	if _, err := Rank(pool(6), Config{Algorithm: "nope"}); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if _, err := Rank(pool(6), Config{Tolerance: -1}); err == nil {
		t.Error("accepted negative tolerance")
	}
	// GrBinary requires two groups.
	three := pool(6)
	three[0].Group = "c"
	if _, err := Rank(three, Config{Algorithm: AlgorithmGrBinary}); err == nil {
		t.Error("grbinary accepted three groups")
	}
}

func TestCentralChoices(t *testing.T) {
	cands := pool(12)
	for _, central := range []Central{CentralWeaklyFair, CentralFairDCG, CentralScoreOrder} {
		ranked, err := Rank(cands, Config{
			Algorithm: AlgorithmMallows, Theta: 30, Central: central, Seed: 4, Tolerance: 0.05,
		})
		if err != nil {
			t.Fatalf("%s: %v", central, err)
		}
		if len(ranked) != 12 {
			t.Fatalf("%s: %d candidates", central, len(ranked))
		}
		// θ=30 reproduces the central, so the central's properties show
		// directly: the fair-DCG central passes every prefix bound, the
		// score central is the ideal order.
		switch central {
		case CentralFairDCG:
			pp, err := PPfair(ranked, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if pp != 100 {
				t.Fatalf("fair central PPfair = %v", pp)
			}
		case CentralScoreOrder:
			v, err := NDCG(ranked)
			if err != nil {
				t.Fatal(err)
			}
			if v != 1 {
				t.Fatalf("score central NDCG = %v", v)
			}
		}
	}
	if _, err := Rank(cands, Config{Central: "bogus"}); err == nil {
		t.Error("accepted unknown central")
	}
}

func TestScoreSortedIsDescending(t *testing.T) {
	ranked, err := Rank(pool(9), Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("score order violated")
		}
	}
	v, err := NDCG(ranked)
	if err != nil || v != 1 {
		t.Fatalf("NDCG of score order = %v, %v", v, err)
	}
}

func TestILPImprovesFairnessOverScoreOrder(t *testing.T) {
	cands := pool(12) // group a holds all top scores
	byScore, err := Rank(cands, Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Rank(cands, Config{Algorithm: AlgorithmILP, Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ppScore, err := PPfair(byScore, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ppFair, err := PPfair(fair, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ppFair <= ppScore {
		t.Fatalf("ILP PPfair %v not above score order %v", ppFair, ppScore)
	}
	if ppFair != 100 {
		t.Fatalf("ILP PPfair = %v, want 100", ppFair)
	}
}

func TestNDCGKendallMetrics(t *testing.T) {
	cands := pool(6)
	byScore, _ := Rank(cands, Config{Algorithm: AlgorithmScoreSorted})
	rev := make([]Candidate, len(byScore))
	for i := range byScore {
		rev[i] = byScore[len(byScore)-1-i]
	}
	kt, err := KendallTau(byScore, rev)
	if err != nil {
		t.Fatal(err)
	}
	if kt != 15 {
		t.Fatalf("KT(order, reverse) = %d, want 15", kt)
	}
	self, err := KendallTau(byScore, byScore)
	if err != nil || self != 0 {
		t.Fatalf("KT self = %d, %v", self, err)
	}
	ndcgRev, err := NDCG(rev)
	if err != nil {
		t.Fatal(err)
	}
	if ndcgRev >= 1 {
		t.Fatalf("NDCG of reverse = %v", ndcgRev)
	}
	// Error paths.
	if _, err := KendallTau(byScore, byScore[:3]); err == nil {
		t.Error("accepted size mismatch")
	}
	other := pool(6)
	other[0].ID = "zzz"
	if _, err := KendallTau(byScore, other); err == nil {
		t.Error("accepted different candidate sets")
	}
}

func TestKendallTauDuplicateIDs(t *testing.T) {
	a := []Candidate{{ID: "x", Group: "g"}, {ID: "y", Group: "g"}}
	dup := []Candidate{{ID: "x", Group: "g"}, {ID: "x", Group: "g"}}
	if _, err := KendallTau(a, dup); err == nil {
		t.Error("accepted duplicate IDs in the second ranking")
	}
	// Duplicates in the first ranking collide on the second's positions.
	if _, err := KendallTau(dup, a); err == nil {
		t.Error("accepted duplicate IDs in the first ranking")
	}
	// Same sizes, disjoint ID sets.
	b := []Candidate{{ID: "p", Group: "g"}, {ID: "q", Group: "g"}}
	if _, err := KendallTau(a, b); err == nil {
		t.Error("accepted disjoint candidate sets")
	}
}

func TestRankRejectsNaNScore(t *testing.T) {
	cands := pool(6)
	cands[2].Score = math.NaN()
	if _, err := Rank(cands, Config{}); err == nil {
		t.Error("accepted a NaN score")
	}
	r, err := NewRanker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Do(context.Background(), Request{Candidates: cands, Seed: sptr(1)}); err == nil {
		t.Error("Ranker accepted a NaN score")
	}
}

func TestPPfairByAttr(t *testing.T) {
	cands := pool(12)
	ranked, err := Rank(cands, Config{Algorithm: AlgorithmMallowsBest, Theta: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := PPfairByAttr(ranked, "region", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v) || v > 100 {
		t.Fatalf("PPfairByAttr = %v", v)
	}
	if _, err := PPfairByAttr(ranked, "missing", 0.1); err == nil {
		t.Error("accepted missing attribute")
	}
}

func TestPPfairTopK(t *testing.T) {
	ranked, err := Rank(pool(12), Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	full, err := PPfair(ranked, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	all, err := PPfairTopK(ranked, len(ranked), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if all != full {
		t.Fatalf("PPfairTopK(n) = %v, PPfair = %v", all, full)
	}
	if _, err := PPfairTopK(ranked, 0, 0.05); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := PPfairTopK(ranked, 13, 0.05); err == nil {
		t.Error("accepted k>n")
	}
}

func TestInfeasibleIndexConsistentWithPPfair(t *testing.T) {
	ranked, err := Rank(pool(10), Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	ii, err := InfeasibleIndex(ranked, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PPfair(ranked, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * (1 - float64(ii)/10)
	if math.Abs(pp-want) > 1e-9 {
		t.Fatalf("PPfair %v inconsistent with II %d", pp, ii)
	}
}

func TestHighThetaPreservesQuality(t *testing.T) {
	cands := pool(20)
	ranked, err := Rank(cands, Config{Algorithm: AlgorithmMallows, Theta: 25, Seed: 2, Tolerance: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NDCG(ranked)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.98 {
		t.Fatalf("θ=25 NDCG = %v, want ≈ 1", v)
	}
}

// The noise catalog is the engine's axis table: Noises lists exactly
// its names, sorted, each with its description, and LookupNoise finds
// each entry Noises lists.
func TestNoisesListAxisTable(t *testing.T) {
	var want []string
	for name := range core.Axes {
		want = append(want, string(name))
	}
	slices.Sort(want)
	var got []string
	for _, n := range Noises() {
		got = append(got, n.Name)
		if d := core.Axes[core.Noise(n.Name)].Description; n.Description != d {
			t.Errorf("noise %q: description %q, axis table says %q", n.Name, n.Description, d)
		}
		if info, ok := LookupNoise(n.Name); !ok || info != n {
			t.Errorf("LookupNoise(%q) = %+v, %v; Noises lists %+v", n.Name, info, ok, n)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Noises() names %v, want the axis table's %v", got, want)
	}
}
