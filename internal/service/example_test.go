package service_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	fairrank "repro"
	"repro/internal/service"
)

// The service request path: build a Service once, then serve typed
// requests. Equal seeds return equal rankings.
func ExampleService_rank() {
	svc := service.New(service.Config{Workers: 2})
	resp, err := svc.Rank(context.Background(), &service.RankRequest{
		Candidates: []service.Candidate{
			{ID: "ava", Score: 5.2, Group: "f"},
			{ID: "bea", Score: 5.1, Group: "f"},
			{ID: "cleo", Score: 4.8, Group: "f"},
			{ID: "dina", Score: 4.2, Group: "f"},
			{ID: "emil", Score: 9.9, Group: "m"},
			{ID: "finn", Score: 9.5, Group: "m"},
			{ID: "gus", Score: 9.1, Group: "m"},
			{ID: "hank", Score: 8.8, Group: "m"},
		},
		Algorithm: "ilp",
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, rc := range resp.Ranking[:4] {
		fmt.Printf("%d. %s (%s)\n", rc.Rank, rc.ID, rc.Group)
	}
	// Output:
	// 1. emil (m)
	// 2. finn (m)
	// 3. ava (f)
	// 4. gus (m)
}

// Batches run independent requests concurrently; item i answers
// request i, and each item fails or succeeds alone.
func ExampleService_rankBatch() {
	svc := service.New(service.Config{Workers: 4})
	pool := []service.Candidate{
		{ID: "x", Score: 3, Group: "a"},
		{ID: "y", Score: 2, Group: "b"},
		{ID: "z", Score: 1, Group: "a"},
	}
	resp, err := svc.RankBatch(context.Background(), &service.BatchRequest{
		Requests: []service.RankRequest{
			{Candidates: pool, Algorithm: "score"},
			{Candidates: nil}, // invalid: fails alone
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("item 0 top:", resp.Items[0].Response.Ranking[0].ID)
	fmt.Println("item 1 error:", resp.Items[1].Error)
	// Output:
	// item 0 top: x
	// item 1 error: invalid request: fairrank: empty candidate set
}

// The serving catalog is generated from the fairrank registry: a custom
// Strategy registered through the public library API is immediately
// cataloged by GET /v1/algorithms and servable by name, with no
// serving-layer change.
func ExampleCatalog() {
	// Guarded so a repeated in-process run (go test -count=2) does not
	// re-register; the registry is process-global, first wins.
	if _, registered := fairrank.LookupAlgorithm("central-asis"); !registered {
		fairrank.MustRegister(fairrank.AlgorithmInfo{
			Name:          "central-asis",
			Description:   "serve the central ranking unchanged (example strategy)",
			Deterministic: true,
		}, func(cfg fairrank.Config) (fairrank.Strategy, error) {
			return fairrank.StrategyFunc(func(in *fairrank.Instance, _ *rand.Rand) ([]int, error) {
				return in.Central(), nil
			}), nil
		})
	}
	for _, a := range service.Catalog().Algorithms {
		if a.Name == "central-asis" {
			fmt.Println("cataloged:", a.Name, "—", a.Description)
		}
	}
	svc := service.New(service.Config{Workers: 2})
	resp, err := svc.Rank(context.Background(), &service.RankRequest{
		Candidates: []service.Candidate{
			{ID: "x", Score: 1, Group: "a"},
			{ID: "y", Score: 3, Group: "b"},
			{ID: "z", Score: 2, Group: "a"},
		},
		Algorithm: "central-asis",
		Central:   "score",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top:", resp.Ranking[0].ID)
	// Output:
	// cataloged: central-asis — serve the central ranking unchanged (example strategy)
	// top: y
}
