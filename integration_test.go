package fairrank

// Integration tests spanning the facade and the internal packages:
// dataset → facade, aggregation → post-processing, and the optimality
// ordering between the exact algorithms.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fairness"
	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/rankdist"
)

// germanPool converts the synthetic German Credit top-N into facade
// candidates with Housing as the hidden attribute.
func germanPool(t *testing.T, n int) []Candidate {
	t.Helper()
	ds := dataset.SyntheticGermanCredit(rand.New(rand.NewSource(5)))
	top, err := ds.TopByAmount(n)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]Candidate, top.Len())
	for i, r := range top.Records {
		pool[i] = Candidate{
			ID:    fmt.Sprintf("a%03d", r.ID),
			Score: r.CreditAmount,
			Group: r.AgeSex.String(),
			Attrs: map[string]string{"housing": r.Housing.String()},
		}
	}
	return pool
}

func TestGermanPipelineThroughFacade(t *testing.T) {
	pool := germanPool(t, 40)
	for _, algo := range []Algorithm{
		AlgorithmScoreSorted, AlgorithmDetConstSort, AlgorithmIPF,
		AlgorithmILP, AlgorithmMallows, AlgorithmMallowsBest,
	} {
		ranked, err := Rank(pool, Config{Algorithm: algo, Tolerance: 0.1, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		ndcg, err := NDCG(ranked)
		if err != nil {
			t.Fatal(err)
		}
		if ndcg <= 0.9 || ndcg > 1+1e-9 {
			t.Fatalf("%s NDCG = %v", algo, ndcg)
		}
		ppKnown, err := PPfair(ranked, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		ppHidden, err := PPfairByAttr(ranked, "housing", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if ppKnown > 100+1e-9 || ppHidden > 100+1e-9 {
			t.Fatalf("%s PPfair out of range: %v / %v", algo, ppKnown, ppHidden)
		}
		// Exactly-fair algorithms must reach 100 on the known attribute.
		if (algo == AlgorithmIPF || algo == AlgorithmILP) && ppKnown != 100 {
			t.Fatalf("%s PPfair(known) = %v, want 100", algo, ppKnown)
		}
	}
}

func TestOptimalityOrderingAcrossAlgorithms(t *testing.T) {
	// On a binary-attribute pool: GrBinary is KT-optimal and IPF is
	// footrule-optimal among exactly fair rankings, and the ILP is
	// DCG-optimal; each must dominate the other two on its own metric.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(8)
		pool := make([]Candidate, n)
		for i := range pool {
			g := "a"
			if i%2 == 0 {
				g = "b"
			}
			pool[i] = Candidate{
				ID:    fmt.Sprintf("c%02d", i),
				Score: rng.Float64() * 100,
				Group: g,
			}
		}
		cfg := func(a Algorithm) Config { return Config{Algorithm: a, Tolerance: 0.1, Seed: 3} }
		grb, err := Rank(pool, cfg(AlgorithmGrBinary))
		if err != nil {
			t.Fatal(err)
		}
		ipf, err := Rank(pool, cfg(AlgorithmIPF))
		if err != nil {
			t.Fatal(err)
		}
		ilp, err := Rank(pool, cfg(AlgorithmILP))
		if err != nil {
			t.Fatal(err)
		}
		// GrBinary is KT-optimal and IPF footrule-optimal relative to the
		// facade's internal weakly fair ranking, which this test cannot
		// see; the observable ordering is on quality, where the ILP must
		// dominate both exactly-fair competitors.
		nGrb, err := NDCG(grb)
		if err != nil {
			t.Fatal(err)
		}
		nIpf, err := NDCG(ipf)
		if err != nil {
			t.Fatal(err)
		}
		nIlp, err := NDCG(ilp)
		if err != nil {
			t.Fatal(err)
		}
		if nIlp < nGrb-1e-9 || nIlp < nIpf-1e-9 {
			t.Fatalf("ILP NDCG %v below GrBinary %v or IPF %v", nIlp, nGrb, nIpf)
		}
	}
}

func TestAggregateThenPostProcessPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := perm.Random(10, rng)
	model, err := mallows.New(truth, 1)
	if err != nil {
		t.Fatal(err)
	}
	votes := model.SampleN(25, rng)
	consensus, _, err := aggregate.KemenyExact(votes)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := core.CalibrateTheta(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	final, err := core.PostProcess(consensus, nil, core.Config{
		Noise:     core.NoiseMallows,
		Theta:     theta,
		Samples:   10,
		Criterion: core.SelectKT,
	}, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	if err := final.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := rankdist.KendallTau(final, consensus)
	if err != nil {
		t.Fatal(err)
	}
	// Best-of-10 under the KT criterion at E[d]=4 stays close.
	if d > 8 {
		t.Fatalf("post-processed ranking drifted KT %d from consensus", d)
	}
}

// TestPostProcessMatchesDo pins the one-shot Algorithm 1 the paper
// experiments run on to the serving engine: on the score-order central,
// for every built-in noise axis and both selection criteria, it must
// return exactly the ranking Ranker.Do returns for the same θ, samples
// and seed.
func TestPostProcessMatchesDo(t *testing.T) {
	cands := germanPool(t, 25)
	for _, noise := range []Noise{NoiseMallows, NoiseGMallows, NoisePlackettLuce} {
		for _, crit := range []Criterion{CriterionNDCG, CriterionKT} {
			for _, theta := range []float64{0, 0.7, 2} {
				cfg := Config{Algorithm: AlgorithmMallowsBest, Central: CentralScoreOrder, Noise: noise, Criterion: crit, Samples: 7}
				r, err := NewRanker(cfg)
				if err != nil {
					t.Fatal(err)
				}
				in, err := buildInstance(cands, r.cfg.withDefaults(len(cands)))
				if err != nil {
					t.Fatal(err)
				}
				cc := core.Config{Noise: core.Noise(noise), Theta: theta, Samples: cfg.Samples, Criterion: core.SelectNDCG}
				if crit == CriterionKT {
					cc.Criterion = core.SelectKT
				}
				for seed := int64(0); seed < 10; seed++ {
					res, err := r.Do(context.Background(), Request{Candidates: cands, Theta: &theta, Seed: &seed})
					if err != nil {
						t.Fatal(err)
					}
					got, err := core.PostProcess(in.Initial, in.Scores, cc, seed)
					if err != nil {
						t.Fatal(err)
					}
					if want := res.Ranking; !sameRanking(pickCandidates(cands, got), want) {
						t.Fatalf("%s/%s θ=%g seed %d: PostProcess %v, Do %v", noise, crit, theta, seed, ids(pickCandidates(cands, got)), ids(want))
					}
				}
			}
		}
	}
}

func TestFacadeMetricsAgreeWithInternal(t *testing.T) {
	pool := germanPool(t, 25)
	ranked, err := Rank(pool, Config{Algorithm: AlgorithmDetConstSort, Tolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute PPfair through the internal packages.
	groupIDs := map[string]int{}
	var names []string
	for _, c := range ranked {
		if _, ok := groupIDs[c.Group]; !ok {
			groupIDs[c.Group] = 0
			names = append(names, c.Group)
		}
	}
	// The facade sorts group names; mirror that.
	sort.Strings(names)
	for i, n := range names {
		groupIDs[n] = i
	}
	assign := make([]int, len(ranked))
	for i, c := range ranked {
		assign[i] = groupIDs[c.Group]
	}
	gr, err := fairness.NewGroups(assign, len(names))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := fairness.Proportional(gr, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fairness.PPfair(perm.Identity(len(ranked)), gr, cons)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PPfair(ranked, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("facade PPfair %v, internal %v", got, want)
	}
}
