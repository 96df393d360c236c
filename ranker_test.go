package fairrank

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// rankerEqualPools returns candidate pools of several sizes for the
// equivalence tests.
func rankerEqualPools(t *testing.T) [][]Candidate {
	t.Helper()
	return [][]Candidate{
		germanPool(t, 8),
		germanPool(t, 40),
		germanPool(t, 100),
	}
}

// The Ranker's contract is bit-for-bit equivalence with the package
// function: for every algorithm and seed, Ranker.Do must return
// exactly what Rank returns.
func TestRankerMatchesRank(t *testing.T) {
	configs := []Config{
		{Algorithm: AlgorithmMallows, Theta: 0.5},
		{Algorithm: AlgorithmMallowsBest},
		{Algorithm: AlgorithmMallowsBest, Criterion: CriterionKT, Theta: 2},
		{Algorithm: AlgorithmMallowsBest, Central: CentralScoreOrder, Samples: 5},
		{Algorithm: AlgorithmMallowsBest, Central: CentralFairDCG, Criterion: CriterionKT},
		{Algorithm: AlgorithmScoreSorted},
		{Algorithm: AlgorithmDetConstSort},
		{Algorithm: AlgorithmIPF},
		{Algorithm: AlgorithmILP},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(string(cfg.Algorithm)+"/"+string(cfg.Criterion), func(t *testing.T) {
			r, err := NewRanker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, pool := range rankerEqualPools(t) {
				for seed := int64(0); seed < 4; seed++ {
					cfgSeeded := cfg
					cfgSeeded.Seed = seed
					want, err := Rank(pool, cfgSeeded)
					if err != nil {
						t.Fatal(err)
					}
					// Twice per seed: the second call exercises the warm
					// caches and pooled buffers.
					for rep := 0; rep < 2; rep++ {
						got, err := r.Do(context.Background(), Request{Candidates: pool, Seed: sptr(seed)})
						if err != nil {
							t.Fatal(err)
						}
						if !sameRanking(got.Ranking, want) {
							t.Fatalf("n=%d seed=%d rep=%d: Ranker %v, Rank %v",
								len(pool), seed, rep, ids(got.Ranking), ids(want))
						}
					}
				}
			}
		})
	}
}

func TestRankerConcurrentUse(t *testing.T) {
	r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Theta: 1, Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Candidates: germanPool(t, 60), Seed: sptr(7)}
	want, err := r.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := r.Do(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			if !sameRanking(got.Ranking, want.Ranking) {
				errs <- fmt.Errorf("concurrent result diverged: %v vs %v", ids(got.Ranking), ids(want.Ranking))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// One seed gives one ranking: DoParallel must be deterministic in the
// seed and invariant in the worker count, and Do must equal it — the
// whole Result, diagnostics included — for every registered algorithm
// and noise axis, full and top-k. Only the seed may change the result.
func TestRankParallelDeterministic(t *testing.T) {
	r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Theta: 1, Samples: 16})
	if err != nil {
		t.Fatal(err)
	}
	pool50 := germanPool(t, 50)
	ctx := context.Background()
	base, err := r.DoParallel(ctx, Request{Candidates: pool50, Seed: sptr(3)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7, 16, 64} {
		got, err := r.DoParallel(ctx, Request{Candidates: pool50, Seed: sptr(3)}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRanking(got.Ranking, base.Ranking) {
			t.Fatalf("workers=%d changed the result: %v vs %v", workers, ids(got.Ranking), ids(base.Ranking))
		}
	}
	other, err := r.DoParallel(ctx, Request{Candidates: pool50, Seed: sptr(4)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sameRanking(other.Ranking, base.Ranking) {
		t.Fatal("different seeds produced identical rankings (suspicious for m=16, n=50)")
	}
	for _, info := range Algorithms() {
		if strings.HasPrefix(info.Name, "test:") {
			continue
		}
		noises := []Noise{""}
		if info.Sampling && info.Noise == "" {
			noises = []Noise{NoiseMallows, NoiseGMallows, NoisePlackettLuce}
		}
		r, err := NewRanker(Config{Algorithm: Algorithm(info.Name), Theta: 0.8, Samples: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, noise := range noises {
			for _, topK := range []*int{nil, iptr(5)} {
				req := Request{Candidates: pool(20), Noise: noise, TopK: topK, Seed: sptr(9)}
				want, err := r.Do(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 3, 4, 8} {
					got, err := r.DoParallel(ctx, req, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s×%s top-k %v, %d workers: DoParallel %+v, Do %+v", info.Name, noise, topK != nil, workers, got, want)
					}
				}
			}
		}
	}
}

// Algorithms that make one draw, or none, have nothing to fan out: on
// real German-credit scores, DoParallel at eight workers must return
// exactly the Result that Do returns.
func TestRankParallelFallback(t *testing.T) {
	ctx := context.Background()
	pool := germanPool(t, 20)
	for _, cfg := range []Config{
		{Algorithm: AlgorithmScoreSorted},
		{Algorithm: AlgorithmILP},
		{Algorithm: AlgorithmMallows, Theta: 1},
	} {
		r, err := NewRanker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Candidates: pool, Seed: sptr(9)}
		want, err := r.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.DoParallel(ctx, req, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DoParallel %+v, Do %+v", cfg.Algorithm, got, want)
		}
	}
}

func TestNewRankerRejectsInvalid(t *testing.T) {
	cases := []Config{
		{Algorithm: "frobnicate"},
		{Algorithm: AlgorithmMallowsBest, Criterion: "splines"},
		{Central: "midpoint"},
		{Theta: -1},
		{Theta: math.NaN()},
		{Samples: -3},
		{Tolerance: -0.2},
		{Tolerance: math.NaN()},
		{Sigma: -1},
		{Sigma: math.NaN()},
	}
	for _, cfg := range cases {
		if _, err := NewRanker(cfg); err == nil {
			t.Errorf("NewRanker(%+v) accepted invalid config", cfg)
		}
	}
}

// Past the engine's size-state cap (64 distinct (n, θ) keys; the cap
// itself is pinned in internal/core) ranking stays equivalent to Rank —
// a burst of junk keys cannot lock later traffic out of the
// amortization.
func TestRankerSizeCacheCap(t *testing.T) {
	r, err := NewRanker(Config{Theta: 1, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100
	junk := germanPool(t, 40)
	for i := 0; i < keys; i++ {
		theta := 2 + float64(i)/10
		if _, err := r.Do(context.Background(), Request{Candidates: junk, Theta: &theta}); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.TableMisses != keys {
		t.Fatalf("%d distinct (n, θ) keys missed the cache %d times", keys, st.TableMisses)
	}
	// A fresh size past the cap must rank correctly, evicting rather
	// than growing.
	pool := germanPool(t, keys+10)
	want, err := Rank(pool, Config{Theta: 1, Samples: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Do(context.Background(), Request{Candidates: pool, Seed: sptr(5)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRanking(got.Ranking, want) {
		t.Fatal("over-cap ranking diverged from Rank")
	}
}

// The Stats hook counts what the engine actually did: requests served,
// draws executed, and table-cache hits/misses — the counters the
// serving layer's /v1/metrics aggregates.
func TestRankerStats(t *testing.T) {
	pool := germanPool(t, 20)
	r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Samples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); !reflect.DeepEqual(st, RankerStats{}) {
		t.Fatalf("fresh Ranker has nonzero stats: %+v", st)
	}
	for seed := int64(0); seed < 3; seed++ {
		if _, err := r.Do(context.Background(), Request{Candidates: pool, Seed: sptr(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Requests != 3 {
		t.Errorf("requests = %d, want 3", st.Requests)
	}
	if st.Draws != 15 {
		t.Errorf("draws = %d, want 15 (3 requests × 5 samples)", st.Draws)
	}
	if st.TableMisses != 1 || st.TableHits != 2 {
		t.Errorf("table hits/misses = %d/%d, want 2/1", st.TableHits, st.TableMisses)
	}
	// A second pool size pays exactly one more table build.
	if _, err := r.Do(context.Background(), Request{Candidates: germanPool(t, 35), Seed: sptr(1)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TableMisses != 2 {
		t.Errorf("table misses after a new size = %d, want 2", st.TableMisses)
	}
	// Deterministic algorithms draw nothing.
	det, err := NewRanker(Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Do(context.Background(), Request{Candidates: pool, Seed: sptr(1)}); err != nil {
		t.Fatal(err)
	}
	if st := det.Stats(); st.Requests != 1 || st.Draws != 0 {
		t.Errorf("deterministic stats %+v, want 1 request, 0 draws", st)
	}
	// The pool counters survive size-state eviction: 100 requests at
	// 100 distinct θ overflow the cache, each sequential full-ranking
	// request checks out one draw worker, and no snapshot is below the
	// previous one.
	ev, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Samples: 5})
	if err != nil {
		t.Fatal(err)
	}
	const requests = 100
	var prev RankerStats
	for i := 0; i < requests; i++ {
		theta := 0.01 * float64(i+1)
		if _, err := ev.Do(context.Background(), Request{Candidates: pool, Theta: &theta, Seed: sptr(1)}); err != nil {
			t.Fatal(err)
		}
		st := ev.Stats()
		if st.PoolGets < prev.PoolGets || st.PoolMisses < prev.PoolMisses {
			t.Fatalf("request %d: pool counters went from %d/%d to %d/%d", i, prev.PoolGets, prev.PoolMisses, st.PoolGets, st.PoolMisses)
		}
		prev = st
	}
	if prev.PoolGets != requests {
		t.Errorf("pool gets = %d after %d requests, want %d", prev.PoolGets, requests, requests)
	}
}

// Stats derives Draws and DrawsTruncated from the per-path counters, so
// no snapshot can tear: polled while full and top_k DoParallel requests
// on every noise axis run concurrently, every snapshot's DrawsFull +
// DrawsTruncated is Draws and its per-noise counts sum to
// DrawsTruncated.
func TestRankerStatsSumsNeverTear(t *testing.T) {
	const clients, requests, samples = 4, 60, 4
	r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	pool := germanPool(t, 30)
	noises := Noises()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req := Request{Candidates: pool, Noise: Noise(noises[i%len(noises)].Name), Seed: sptr(int64(i))}
				if (g+i)%2 == 1 {
					req.TopK = iptr(5)
				}
				if _, err := r.DoParallel(context.Background(), req, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var st RankerStats
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st = r.Stats()
		var byNoise int64
		for _, v := range st.DrawsTruncatedByNoise {
			byNoise += v
		}
		if st.DrawsFull+st.DrawsTruncated != st.Draws || byNoise != st.DrawsTruncated {
			t.Fatalf("torn snapshot: full %d + truncated %d vs draws %d, per-noise sum %d", st.DrawsFull, st.DrawsTruncated, st.Draws, byNoise)
		}
	}
	if want := int64(clients * requests * samples); st.Draws != want || st.DrawsTruncated != want/2 {
		t.Errorf("draws = %d (%d truncated), want %d (%d truncated)", st.Draws, st.DrawsTruncated, want, want/2)
	}
}

func sameRanking(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func ids(c []Candidate) []string {
	out := make([]string, len(c))
	for i, x := range c {
		out[i] = x.ID
	}
	return out
}
