package service

// The shared-Ranker stress suite: many goroutines hammering Rank with
// rotating configurations on the service's one Ranker, so its (n, θ)
// size-state cache inserts, shares and evicts under contention. Run
// under -race (CI does) these tests pin the concurrency contract of the
// shared engine; without -race they still verify that rankings stay
// correct and deterministic while requests of every configuration
// interleave.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// stressIterations keeps the suite meaningful but bounded; -short
// halves the pressure.
func stressIterations() int {
	if testing.Short() {
		return 150
	}
	return 400
}

// TestRankerCacheStressRotatingConfigs rotates through hundreds of
// distinct configurations (algorithm and sigma) from many goroutines at
// once: every Rank must keep succeeding on the shared engine.
func TestRankerCacheStressRotatingConfigs(t *testing.T) {
	s := New(Config{Workers: 4})
	cands := pool(12)
	const workers = 8
	iters := stressIterations()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			algos := []string{"score", "mallows", "detconstsort", "mallows-best"}
			for i := 0; i < iters; i++ {
				// 288 distinct sigmas, and the algorithm rotation mixes
				// sampling and deterministic algorithms on one engine.
				req := &RankRequest{
					Candidates: cands,
					Algorithm:  algos[(w+i)%len(algos)],
					Sigma:      float64((w*iters+i)%288) / 1000,
					Samples:    ptr(2),
					Seed:       int64(i),
				}
				resp, err := s.Rank(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if len(resp.Ranking) != len(cands) {
					errs <- fmt.Errorf("worker %d iter %d: %d ranked, want %d", w, i, len(resp.Ranking), len(cands))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRankerCacheStressDeterminismUnderContention: goroutines racing on
// one configuration, interleaved with other configurations, must still
// produce the bit-identical ranking for equal seeds — engine sharing
// must never leak cross-request state into results.
func TestRankerCacheStressDeterminismUnderContention(t *testing.T) {
	s := New(Config{Workers: 4})
	cands := pool(16)
	const workers = 8
	iters := stressIterations() / 2
	want, err := s.Rank(context.Background(), &RankRequest{Candidates: cands, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Interleave the fixed request with other configurations on
				// the same engine.
				if i%3 == 0 {
					churn := &RankRequest{Candidates: cands, Sigma: float64(i%300)/100 + 1, Algorithm: "detconstsort", Seed: 7}
					if _, err := s.Rank(context.Background(), churn); err != nil {
						errs <- fmt.Errorf("worker %d churn %d: %v", w, i, err)
						return
					}
					continue
				}
				resp, err := s.Rank(context.Background(), &RankRequest{Candidates: cands, Seed: 42})
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				for p := range resp.Ranking {
					if resp.Ranking[p].ID != want.Ranking[p].ID {
						errs <- fmt.Errorf("worker %d iter %d: rank %d = %s, want %s (engine sharing leaked state)",
							w, i, p+1, resp.Ranking[p].ID, want.Ranking[p].ID)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRankerCacheStressSharedEngineSizeStates rotates per-request theta
// on one shared engine from many goroutines: the engine's internal
// (n, θ)-keyed table cache does its own lock-free reads with locked
// insert/evict, and must survive the churn.
func TestRankerCacheStressSharedEngineSizeStates(t *testing.T) {
	s := New(Config{Workers: 4})
	cands := pool(10)
	const workers = 8
	iters := stressIterations() / 2
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				theta := float64((w*iters+i)%96)/10 + 0.1 // 96 distinct θ > the engine's size-state cap
				req := &RankRequest{Candidates: cands, Theta: &theta, Samples: ptr(2), Seed: int64(i)}
				if _, err := s.Rank(context.Background(), req); err != nil {
					errs <- fmt.Errorf("worker %d iter %d (θ=%v): %v", w, i, theta, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
