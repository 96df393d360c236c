package fairrank_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	fairrank "repro"
)

// The candidates of the worked example: screening scores favour group
// "m", so the score order buries group "f".
func examplePool() []fairrank.Candidate {
	return []fairrank.Candidate{
		{ID: "ava", Score: 5.2, Group: "f"},
		{ID: "bea", Score: 5.1, Group: "f"},
		{ID: "cleo", Score: 4.8, Group: "f"},
		{ID: "dina", Score: 4.2, Group: "f"},
		{ID: "emil", Score: 9.9, Group: "m"},
		{ID: "finn", Score: 9.5, Group: "m"},
		{ID: "gus", Score: 9.1, Group: "m"},
		{ID: "hank", Score: 8.8, Group: "m"},
	}
}

func ExampleRank() {
	// Center the Mallows noise on the DCG-optimal fair ranking and keep
	// the sample closest to it: strong prefix fairness, tiny quality cost.
	ranked, err := fairrank.Rank(examplePool(), fairrank.Config{
		Algorithm: fairrank.AlgorithmMallowsBest,
		Central:   fairrank.CentralFairDCG,
		Criterion: fairrank.CriterionKT,
		Theta:     2,
		Samples:   15,
		Tolerance: 0.15,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fmt.Printf("%d. %s (%s)\n", i+1, ranked[i].ID, ranked[i].Group)
	}
	// Output:
	// 1. emil (m)
	// 2. finn (m)
	// 3. ava (f)
	// 4. gus (m)
}

func ExampleRank_ilp() {
	// The paper's §IV-B program: the DCG-optimal ranking whose every
	// prefix respects the proportional bounds.
	ranked, err := fairrank.Rank(examplePool(), fairrank.Config{
		Algorithm: fairrank.AlgorithmILP,
		Tolerance: 0.15,
	})
	if err != nil {
		log.Fatal(err)
	}
	pp, err := fairrank.PPfair(ranked, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PPfair = %.0f%%\n", pp)
	// Output:
	// PPfair = 100%
}

func ExamplePPfairTopK() {
	byScore, err := fairrank.Rank(examplePool(), fairrank.Config{
		Algorithm: fairrank.AlgorithmScoreSorted,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The score order's top 4 is all group "m".
	pp, err := fairrank.PPfairTopK(byScore, 4, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortlist PPfair = %.0f%%\n", pp)
	// Output:
	// shortlist PPfair = 0%
}

func ExampleNewRanker() {
	// A Ranker is built once and reused across requests, amortizing the
	// per-call setup. For equal seeds it returns exactly what Rank
	// returns.
	cfg := fairrank.Config{
		Algorithm: fairrank.AlgorithmMallowsBest,
		Central:   fairrank.CentralFairDCG,
		Criterion: fairrank.CriterionKT,
		Theta:     2,
		Tolerance: 0.15,
	}
	r, err := fairrank.NewRanker(cfg)
	if err != nil {
		log.Fatal(err)
	}
	seed := int64(42)
	res, err := r.Do(context.Background(), fairrank.Request{Candidates: examplePool(), Seed: &seed})
	if err != nil {
		log.Fatal(err)
	}
	ranked := res.Ranking
	for i := 0; i < 4; i++ {
		fmt.Printf("%d. %s (%s)\n", i+1, ranked[i].ID, ranked[i].Group)
	}
	cfg.Seed = 42
	oneShot, err := fairrank.Rank(examplePool(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	same := true
	for i := range ranked {
		same = same && ranked[i].ID == oneShot[i].ID
	}
	fmt.Println("matches one-shot Rank:", same)
	// Output:
	// 1. emil (m)
	// 2. finn (m)
	// 3. ava (f)
	// 4. gus (m)
	// matches one-shot Rank: true
}

func ExampleRanker_Do() {
	// The Request/Result API: per-request overrides ride on the Request
	// as pointer fields (zero is a real value), and the Result carries a
	// self-audit computed from state the engine already holds.
	r, err := fairrank.NewRanker(fairrank.Config{
		Algorithm: fairrank.AlgorithmMallowsBest,
		Central:   fairrank.CentralFairDCG,
	})
	if err != nil {
		log.Fatal(err)
	}
	theta, tol := 2.0, 0.15
	topK, seed := 4, int64(42)
	res, err := r.Do(context.Background(), fairrank.Request{
		Candidates: examplePool(),
		Theta:      &theta,
		Criterion:  fairrank.CriterionKT,
		Tolerance:  &tol,
		TopK:       &topK, // return only the shortlist
		Seed:       &seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range res.Ranking {
		fmt.Printf("%d. %s (%s)\n", i+1, c.ID, c.Group)
	}
	d := res.Diagnostics
	fmt.Printf("draws=%d ppfair@%d=%.0f%% infeasible=%d\n",
		d.DrawsEvaluated, d.TopK, d.PPfair, d.InfeasibleIndex)
	// Output:
	// 1. emil (m)
	// 2. finn (m)
	// 3. ava (f)
	// 4. gus (m)
	// draws=15 ppfair@4=100% infeasible=0
}

// The registry is the extension point: Register makes a custom Strategy
// constructible by name everywhere an algorithm name is accepted — the
// library (NewRanker/Rank), the serving catalog (GET /v1/algorithms),
// and the CLIs — with no dispatch table to edit.
func registerRoundRobin() {
	fairrank.MustRegister(fairrank.AlgorithmInfo{
		Name:          "round-robin",
		Description:   "cycle through the groups, taking each group's best remaining candidate",
		Deterministic: true,
	}, func(cfg fairrank.Config) (fairrank.Strategy, error) {
		return fairrank.StrategyFunc(func(in *fairrank.Instance, _ *rand.Rand) ([]int, error) {
			queues := make([][]int, in.NumGroups())
			for _, item := range in.Central() {
				queues[in.Group(item)] = append(queues[in.Group(item)], item)
			}
			out := make([]int, 0, in.N())
			for len(out) < in.N() {
				for g := range queues {
					if len(queues[g]) > 0 {
						out = append(out, queues[g][0])
						queues[g] = queues[g][1:]
					}
				}
			}
			return out, nil
		}), nil
	})
}

func ExampleRegister() {
	// Guarded so a repeated in-process run (go test -count=2) does not
	// re-register; the registry is process-global, first wins.
	if _, registered := fairrank.LookupAlgorithm("round-robin"); !registered {
		registerRoundRobin()
	}
	// The registration is immediately visible in the metadata catalog…
	info, _ := fairrank.LookupAlgorithm("round-robin")
	fmt.Println(info.Name, "—", info.Description)
	// …and rankable by name like any built-in.
	r, err := fairrank.NewRanker(fairrank.Config{Algorithm: "round-robin", Central: fairrank.CentralScoreOrder})
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.Do(context.Background(), fairrank.Request{Candidates: examplePool()})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fmt.Printf("%d. %s (%s)\n", i+1, res.Ranking[i].ID, res.Ranking[i].Group)
	}
	// Output:
	// round-robin — cycle through the groups, taking each group's best remaining candidate
	// 1. ava (f)
	// 2. emil (m)
	// 3. bea (f)
	// 4. finn (m)
}

// The noise mechanism is a first-class axis of the sampling algorithms:
// one Config (or per-request) field swaps Mallows for any registered
// mechanism — here Plackett–Luce, the paper's §VI direction.
func ExampleConfig_noise() {
	r, err := fairrank.NewRanker(fairrank.Config{
		Algorithm: fairrank.AlgorithmMallowsBest,
		Noise:     fairrank.NoisePlackettLuce,
		Theta:     0.5,
		Samples:   10,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.Do(context.Background(), fairrank.Request{Candidates: examplePool()})
	if err != nil {
		log.Fatal(err)
	}
	d := res.Diagnostics
	fmt.Printf("noise=%s draws=%d top=%s\n", d.Noise, d.DrawsEvaluated, res.Ranking[0].ID)
	// Output:
	// noise=plackett-luce draws=10 top=emil
}

func ExampleKendallTau() {
	pool := examplePool()
	byScore, err := fairrank.Rank(pool, fairrank.Config{Algorithm: fairrank.AlgorithmScoreSorted})
	if err != nil {
		log.Fatal(err)
	}
	fair, err := fairrank.Rank(pool, fairrank.Config{Algorithm: fairrank.AlgorithmILP, Tolerance: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	d, err := fairrank.KendallTau(fair, byScore)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fairness cost: %d discordant pairs\n", d)
	// Output:
	// fairness cost: 2 discordant pairs
}
