package rankers

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/perm"
	"repro/internal/quality"
	"repro/internal/rankdist"
)

// makeInstance builds a valid instance with the score-sorted ranking as
// Initial and proportional constraints.
func makeInstance(t *testing.T, scores []float64, assign []int, g int, tol float64) Instance {
	t.Helper()
	gr := fairness.MustGroups(assign, g)
	c, err := fairness.Proportional(gr, tol)
	if err != nil {
		t.Fatal(err)
	}
	qs := quality.Scores(scores)
	return Instance{
		Initial: quality.Ideal(perm.Identity(len(scores)), qs),
		Scores:  qs,
		Groups:  gr,
		Bounds:  c.Table(len(scores)),
	}
}

func randomFeasibleInstance(t *testing.T, rng *rand.Rand, d, g int) Instance {
	t.Helper()
	assign := make([]int, d)
	for i := range assign {
		assign[i] = i % g // every group nonempty, balanced-ish
	}
	rng.Shuffle(d, func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	scores := make([]float64, d)
	for i := range scores {
		scores[i] = math.Round(rng.Float64()*1000) / 10
	}
	return makeInstance(t, scores, assign, g, 0.05+rng.Float64()*0.3)
}

func TestInstanceValidate(t *testing.T) {
	in := makeInstance(t, []float64{3, 2, 1, 0}, []int{0, 1, 0, 1}, 2, 0.2)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := in
	bad.Scores = bad.Scores[:2]
	if err := bad.Validate(); err == nil {
		t.Error("accepted short scores")
	}
	bad = in
	bad.Initial = perm.Perm{0, 0, 1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("accepted invalid initial")
	}
	bad = in
	bad.Groups = nil
	if err := bad.Validate(); err == nil {
		t.Error("accepted nil groups")
	}
	bad = in
	bad.Bounds = in.Bounds.Clone()
	bad.Bounds.Lower = bad.Bounds.Lower[:2]
	bad.Bounds.Upper = bad.Bounds.Upper[:2]
	if err := bad.Validate(); err == nil {
		t.Error("accepted short bounds")
	}
	bad = in
	bad.Groups = fairness.MustGroups([]int{0, 0, 0, 0}, 1)
	if err := bad.Validate(); err == nil {
		t.Error("accepted group-count mismatch")
	}
	bad = in
	bad.Scores = quality.Scores{1, 2, math.NaN(), 4}
	if err := bad.Validate(); err == nil {
		t.Error("accepted NaN score")
	}
}

func TestScoreSortedAndIdentity(t *testing.T) {
	in := makeInstance(t, []float64{1, 5, 3, 4}, []int{0, 1, 0, 1}, 2, 0.3)
	p, err := ScoreSorted{}.Rank(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(perm.MustNew(1, 3, 2, 0)) {
		t.Fatalf("score-sorted = %v", p)
	}
	if (ScoreSorted{}).Name() == "" {
		t.Error("name must be nonempty")
	}
}

func TestMallowsRanker(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	in := randomFeasibleInstance(t, rng, 12, 2)
	for _, crit := range []core.Criterion{core.SelectFirst, core.SelectNDCG, core.SelectKT} {
		m := Mallows{Theta: 1, Samples: 5, Criterion: crit}
		p, err := m.Rank(in, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// θ→∞ reproduces the initial ranking.
	p, err := Mallows{Theta: 30, Samples: 1}.Rank(in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(in.Initial) {
		t.Fatalf("θ=30 sample differs from initial")
	}
	if _, err := (Mallows{Theta: 1, Samples: 1, Criterion: core.Criterion(99)}).Rank(in, rng); err == nil {
		t.Error("accepted unknown criterion")
	}
	if (Mallows{Theta: 0.5, Samples: 15}).Name() != "mallows(θ=0.5,m=15)" {
		t.Errorf("name = %s", Mallows{Theta: 0.5, Samples: 15}.Name())
	}
}

func TestDetConstSortSatisfiesMinimumsExactShares(t *testing.T) {
	// With α = exact shares (tol 0 lower bounds) and β = 1, DetConstSort
	// must produce zero lower-bound violations: its whole purpose is to
	// meet every ⌊share·k⌋ minimum.
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		d := 6 + rng.Intn(14)
		g := 2 + rng.Intn(2)
		assign := make([]int, d)
		for i := range assign {
			assign[i] = i % g
		}
		rng.Shuffle(d, func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
		gr := fairness.MustGroups(assign, g)
		shares := gr.Shares()
		beta := make([]float64, g)
		for i := range beta {
			beta[i] = 1
		}
		c, err := fairness.NewConstraints(shares, beta)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, d)
		for i := range scores {
			scores[i] = rng.Float64() * 100
		}
		qs := quality.Scores(scores)
		in := Instance{
			Initial: quality.Ideal(perm.Identity(d), qs),
			Scores:  qs,
			Groups:  gr,
			Bounds:  c.Table(d),
		}
		p, err := DetConstSort{}.Rank(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		v, err := fairness.EvaluateViolations(p, gr, in.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		if v.LowerCount() != 0 {
			t.Fatalf("DetConstSort left %d lower violations (d=%d g=%d, p=%v)", v.LowerCount(), d, g, p)
		}
	}
}

func TestDetConstSortNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	in := randomFeasibleInstance(t, rng, 15, 3)
	p, err := DetConstSort{Sigma: 1}.Rank(in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := (DetConstSort{Sigma: 1}).Rank(in, nil); err == nil {
		t.Error("accepted σ>0 without RNG")
	}
	if _, err := (DetConstSort{Sigma: -1}).Rank(in, rng); err == nil {
		t.Error("accepted negative σ")
	}
	if (DetConstSort{Sigma: 1}).Name() != "detconstsort(σ=1)" || (DetConstSort{}).Name() != "detconstsort" {
		t.Error("names wrong")
	}
}

// bruteBest finds the feasible permutation minimizing metric (nil result
// if no feasible permutation exists).
func bruteBest(t *testing.T, in Instance, metric func(perm.Perm) float64) (perm.Perm, float64) {
	t.Helper()
	var best perm.Perm
	bestV := math.Inf(1)
	perm.All(len(in.Initial), func(p perm.Perm) bool {
		v, err := fairness.EvaluateViolations(p, in.Groups, in.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		if v.UnionCount() > 0 {
			return true
		}
		if m := metric(p); m < bestV {
			bestV = m
			best = p.Clone()
		}
		return true
	})
	return best, bestV
}

func TestIPFMatchesBruteForceFootrule(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 30; trial++ {
		d := 4 + rng.Intn(3) // 4..6
		g := 2 + rng.Intn(2)
		in := randomFeasibleInstance(t, rng, d, g)
		want, wantV := bruteBest(t, in, func(p perm.Perm) float64 {
			f, err := rankdist.Footrule(p, in.Initial)
			if err != nil {
				t.Fatal(err)
			}
			return float64(f)
		})
		got, err := ApproxMultiValuedIPF{}.Rank(in, nil)
		if want == nil {
			if err == nil {
				t.Fatalf("brute infeasible but IPF returned %v", got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("brute optimum %v but IPF errored: %v", wantV, err)
		}
		viol, err := fairness.EvaluateViolations(got, in.Groups, in.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		if viol.UnionCount() > 0 {
			t.Fatalf("IPF output violates bounds: %v", got)
		}
		f, err := rankdist.Footrule(got, in.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if float64(f) != wantV {
			t.Fatalf("IPF footrule %d, brute optimum %v (d=%d g=%d)", f, wantV, d, g)
		}
	}
}

func TestIPFNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	in := randomFeasibleInstance(t, rng, 12, 3)
	p, err := ApproxMultiValuedIPF{Sigma: 1}.Rank(in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := (ApproxMultiValuedIPF{Sigma: 1}).Rank(in, nil); err == nil {
		t.Error("accepted σ>0 without RNG")
	}
	if _, err := (ApproxMultiValuedIPF{Sigma: -1}).Rank(in, rng); err == nil {
		t.Error("accepted negative σ")
	}
}

func TestGrBinaryMatchesBruteForceKT(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 40; trial++ {
		d := 4 + rng.Intn(4) // 4..7
		in := randomFeasibleInstance(t, rng, d, 2)
		want, wantV := bruteBest(t, in, func(p perm.Perm) float64 {
			kt, err := rankdist.KendallTau(p, in.Initial)
			if err != nil {
				t.Fatal(err)
			}
			return float64(kt)
		})
		got, err := GrBinaryIPF{}.Rank(in, nil)
		if want == nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("brute infeasible but GrBinary gave %v, %v", got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("brute optimum %v but GrBinary errored: %v", wantV, err)
		}
		viol, err := fairness.EvaluateViolations(got, in.Groups, in.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		if viol.UnionCount() > 0 {
			t.Fatalf("GrBinary output violates bounds: %v", got)
		}
		kt, err := rankdist.KendallTau(got, in.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if float64(kt) != wantV {
			t.Fatalf("GrBinary KT %d, brute optimum %v (d=%d)", kt, wantV, d)
		}
	}
}

func TestGrBinaryRejectsNonBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	in := randomFeasibleInstance(t, rng, 6, 3)
	if _, err := (GrBinaryIPF{}).Rank(in, nil); err == nil {
		t.Fatal("accepted 3 groups")
	}
}

func TestILPRankerMatchesBruteForceDCG(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 20; trial++ {
		d := 4 + rng.Intn(3)
		g := 2 + rng.Intn(2)
		in := randomFeasibleInstance(t, rng, d, g)
		want, wantV := bruteBest(t, in, func(p perm.Perm) float64 {
			dcg, err := quality.DCG(p, in.Scores, d)
			if err != nil {
				t.Fatal(err)
			}
			return -dcg // bruteBest minimizes
		})
		got, err := ILPRanker{}.Rank(in, nil)
		if want == nil {
			if err == nil {
				t.Fatal("brute infeasible but ILP ranked")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		dcg, err := quality.DCG(got, in.Scores, d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dcg-(-wantV)) > 1e-9 {
			t.Fatalf("ILP DCG %v, brute %v", dcg, -wantV)
		}
	}
}

func TestILPRankerNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	in := randomFeasibleInstance(t, rng, 10, 2)
	p, err := ILPRanker{Sigma: 1}.Rank(in, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := (ILPRanker{Sigma: 1}).Rank(in, nil); err == nil {
		t.Error("accepted σ>0 without RNG")
	}
	if _, err := (ILPRanker{Sigma: -1}).Rank(in, rng); err == nil {
		t.Error("accepted negative σ")
	}
	if (ILPRanker{Sigma: 1}).Name() != "ilp(σ=1)" || (ILPRanker{}).Name() != "ilp" {
		t.Error("names wrong")
	}
}

func TestAllRankersEmptyInstance(t *testing.T) {
	gr := fairness.MustGroups(nil, 1)
	c, _ := fairness.NewConstraints([]float64{0}, []float64{1})
	in := Instance{Initial: perm.Perm{}, Scores: quality.Scores{}, Groups: gr, Bounds: c.Table(0)}
	rng := rand.New(rand.NewSource(110))
	rankersUnderTest := []Ranker{
		ScoreSorted{}, Mallows{Theta: 1, Samples: 1},
		DetConstSort{}, ApproxMultiValuedIPF{}, ILPRanker{},
	}
	for _, r := range rankersUnderTest {
		p, err := r.Rank(in, rng)
		if err != nil {
			t.Fatalf("%s on empty instance: %v", r.Name(), err)
		}
		if len(p) != 0 {
			t.Fatalf("%s returned non-empty ranking", r.Name())
		}
	}
}
