package fairrank

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func fptr(v float64) *float64 { return &v }
func iptr(v int) *int         { return &v }
func sptr(v int64) *int64     { return &v }

// The compatibility contract of the redesign: for every algorithm, the
// package-level Rank and Ranker.Do return bit-identical rankings for
// equal seeds.
func TestDoMatchesLegacyAPIs(t *testing.T) {
	configs := []Config{
		{Algorithm: AlgorithmMallows, Theta: 0.5},
		{Algorithm: AlgorithmMallowsBest},
		{Algorithm: AlgorithmMallowsBest, Criterion: CriterionKT, Theta: 2},
		{Algorithm: AlgorithmMallowsBest, Central: CentralScoreOrder, Samples: 5},
		{Algorithm: AlgorithmMallowsBest, Central: CentralFairDCG, Criterion: CriterionKT},
		{Algorithm: AlgorithmScoreSorted},
		{Algorithm: AlgorithmDetConstSort},
		{Algorithm: AlgorithmIPF},
		{Algorithm: AlgorithmGrBinary},
		{Algorithm: AlgorithmILP},
	}
	cands := pool(24) // two groups, so grbinary is rankable too
	for _, cfg := range configs {
		cfg := cfg
		t.Run(string(cfg.Algorithm)+"/"+string(cfg.Criterion), func(t *testing.T) {
			r, err := NewRanker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				cfgSeeded := cfg
				cfgSeeded.Seed = seed
				want, err := Rank(cands, cfgSeeded)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Do(context.Background(), Request{Candidates: cands, Seed: sptr(seed)})
				if err != nil {
					t.Fatal(err)
				}
				if !sameRanking(res.Ranking, want) {
					t.Fatalf("seed %d: Do diverged from Rank: %v vs %v", seed, ids(res.Ranking), ids(want))
				}
			}
		})
	}
}

// Per-request overrides must behave exactly as if the override values
// had been baked into the configuration: an engine constructed with one
// Config, asked with overrides, matches a legacy Rank with the merged
// Config — and serving mixed overrides through one engine causes no
// cross-request contamination.
func TestDoOverridesMatchMergedConfig(t *testing.T) {
	base := Config{Algorithm: AlgorithmMallowsBest, Theta: 2, Samples: 4, Tolerance: 0.2}
	r, err := NewRanker(base)
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(30)
	cases := []struct {
		name   string
		req    Request
		merged Config
	}{
		{
			"theta",
			Request{Candidates: cands, Theta: fptr(0.5), Seed: sptr(3)},
			Config{Algorithm: AlgorithmMallowsBest, Theta: 0.5, Samples: 4, Tolerance: 0.2, Seed: 3},
		},
		{
			"samples+criterion",
			Request{Candidates: cands, Samples: iptr(9), Criterion: CriterionKT, Seed: sptr(5)},
			Config{Algorithm: AlgorithmMallowsBest, Theta: 2, Samples: 9, Criterion: CriterionKT, Tolerance: 0.2, Seed: 5},
		},
		{
			"tolerance",
			Request{Candidates: cands, Tolerance: fptr(0.05), Seed: sptr(7)},
			Config{Algorithm: AlgorithmMallowsBest, Theta: 2, Samples: 4, Tolerance: 0.05, Seed: 7},
		},
		{
			"algorithm+sigma",
			Request{Candidates: cands, Algorithm: AlgorithmDetConstSort, Sigma: fptr(0.3), Seed: sptr(9)},
			Config{Algorithm: AlgorithmDetConstSort, Theta: 2, Samples: 4, Tolerance: 0.2, Sigma: 0.3, Seed: 9},
		},
		{
			"pinned-noise algorithm",
			Request{Candidates: cands, Algorithm: AlgorithmPlackettLuce, Seed: sptr(4)},
			Config{Algorithm: AlgorithmPlackettLuce, Theta: 2, Samples: 4, Tolerance: 0.2, Seed: 4},
		},
		{
			"central",
			Request{Candidates: cands, Central: CentralFairDCG, Seed: sptr(6)},
			Config{Algorithm: AlgorithmMallowsBest, Central: CentralFairDCG, Theta: 2, Samples: 4, Tolerance: 0.2, Seed: 6},
		},
		{
			"weak_k",
			Request{Candidates: cands, WeakK: iptr(4), Seed: sptr(8)},
			Config{Algorithm: AlgorithmMallowsBest, Theta: 2, Samples: 4, Tolerance: 0.2, WeakK: 4, Seed: 8},
		},
	}
	// Interleave: run all cases twice so later requests exercise caches
	// warmed by earlier, differently-overridden requests.
	for rep := 0; rep < 2; rep++ {
		for _, tc := range cases {
			want, err := Rank(cands, tc.merged)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Do(context.Background(), tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRanking(res.Ranking, want) {
				t.Fatalf("rep %d, %s: override result diverged from merged config", rep, tc.name)
			}
		}
	}
}

// θ = 0 and tolerance = 0 — unexpressible through Config's zero-means-
// default fields — are real values through Request.
func TestDoExplicitZeroValues(t *testing.T) {
	r, err := NewRanker(Config{Algorithm: AlgorithmMallows, Theta: 30})
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(20)
	concentrated, err := r.Do(context.Background(), Request{Candidates: cands, Seed: sptr(1)})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := r.Do(context.Background(), Request{Candidates: cands, Theta: fptr(0), Seed: sptr(1)})
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Diagnostics.Theta != 0 {
		t.Errorf("θ = 0 resolved to %v", uniform.Diagnostics.Theta)
	}
	// θ = 30 reproduces the central (KT ≈ 0); θ = 0 draws uniformly
	// (expected KT = n(n−1)/4 = 95 at n = 20). Deterministic under the
	// fixed seed.
	if uniform.Diagnostics.CentralKendallTau <= concentrated.Diagnostics.CentralKendallTau {
		t.Errorf("uniform KT %d not above concentrated KT %d",
			uniform.Diagnostics.CentralKendallTau, concentrated.Diagnostics.CentralKendallTau)
	}
	exact, err := r.Do(context.Background(), Request{Candidates: cands, Tolerance: fptr(0), Seed: sptr(1)})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Diagnostics.Tolerance != 0 {
		t.Errorf("tolerance = 0 resolved to %v", exact.Diagnostics.Tolerance)
	}
}

func TestDoTopK(t *testing.T) {
	r, err := NewRanker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(18)
	top, err := r.Do(context.Background(), Request{Candidates: cands, TopK: iptr(5), Seed: sptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Ranking) != 5 || top.Diagnostics.TopK != 5 {
		t.Fatalf("TopK=5 returned %d entries (diag %d)", len(top.Ranking), top.Diagnostics.TopK)
	}
	// The default algorithm runs best-of-m selection, which for TopK
	// requests is prefix-scoped and served by the truncated draw path.
	// The best-of loop over full-length reference draws must produce the
	// identical result — ranking and diagnostics — for the same request.
	want, err := referenceDo(r, Request{Candidates: cands, TopK: iptr(5), Seed: sptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRanking(top.Ranking, want.Ranking) {
		t.Error("truncated draw path and full reference path disagree on the TopK ranking")
	}
	if top.Diagnostics != want.Diagnostics {
		t.Errorf("truncated path diagnostics %+v, reference path %+v", top.Diagnostics, want.Diagnostics)
	}
	// With a single draw (no selection), the delivered prefix is the
	// prefix of the full ranking for equal seeds, and the audit agrees
	// with the standalone PPfairTopK over the full ranking.
	r1, err := NewRanker(Config{Algorithm: AlgorithmMallows})
	if err != nil {
		t.Fatal(err)
	}
	full, err := r1.Do(context.Background(), Request{Candidates: cands, Seed: sptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	top1, err := r1.Do(context.Background(), Request{Candidates: cands, TopK: iptr(5), Seed: sptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRanking(top1.Ranking, full.Ranking[:5]) {
		t.Error("single-draw TopK ranking is not a prefix of the full ranking")
	}
	pp, err := PPfairTopK(full.Ranking, 5, full.Diagnostics.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(top1.Diagnostics.PPfair-pp) > 1e-9 {
		t.Errorf("diagnostics PPfair %v, PPfairTopK %v", top1.Diagnostics.PPfair, pp)
	}
	// Oversized TopK clamps to the pool.
	big, err := r.Do(context.Background(), Request{Candidates: cands, TopK: iptr(99), Seed: sptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Ranking) != 18 {
		t.Errorf("TopK=99 over 18 candidates returned %d entries", len(big.Ranking))
	}
}

// Diagnostics must agree with the standalone metric helpers evaluated
// on the returned ranking.
func TestDoDiagnosticsConsistent(t *testing.T) {
	r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Central: CentralScoreOrder, Samples: 6})
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(16)
	res, err := r.Do(context.Background(), Request{Candidates: cands, Seed: sptr(8)})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diagnostics
	if d.DrawsEvaluated != 6 || d.Samples != 6 {
		t.Errorf("draws = %d, samples = %d, want 6", d.DrawsEvaluated, d.Samples)
	}
	ndcg, err := NDCG(res.Ranking)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.NDCG-ndcg) > 1e-12 {
		t.Errorf("diagnostics NDCG %v, metric helper %v", d.NDCG, ndcg)
	}
	// The score-order central is observable from outside: KT to it must
	// match the standalone KendallTau.
	byScore, err := Rank(cands, Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	kt, err := KendallTau(res.Ranking, byScore)
	if err != nil {
		t.Fatal(err)
	}
	if d.CentralKendallTau != kt {
		t.Errorf("diagnostics central KT %d, metric helper %d", d.CentralKendallTau, kt)
	}
	pp, err := PPfairTopK(res.Ranking, len(res.Ranking), d.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PPfair-pp) > 1e-9 {
		t.Errorf("diagnostics PPfair %v, metric helper %v", d.PPfair, pp)
	}
	ii, err := InfeasibleIndex(res.Ranking, d.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	if d.InfeasibleIndex != ii {
		t.Errorf("diagnostics II %d, metric helper %d", d.InfeasibleIndex, ii)
	}
	// Deterministic algorithms evaluate no draws and still audit.
	det, err := NewRanker(Config{Algorithm: AlgorithmScoreSorted})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := det.Do(context.Background(), Request{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Diagnostics.DrawsEvaluated != 0 {
		t.Errorf("score draws = %d, want 0", sres.Diagnostics.DrawsEvaluated)
	}
	if sres.Diagnostics.NDCG != 1 {
		t.Errorf("score NDCG = %v, want 1", sres.Diagnostics.NDCG)
	}
}

// errAfterCtx reports cancellation after a fixed number of Err calls,
// deterministically exercising the mid-sampling abort paths that a
// timer-based cancel could only hit flakily.
type errAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestDoCancelledContext(t *testing.T) {
	r, err := NewRanker(Config{Algorithm: AlgorithmMallowsBest, Samples: 40})
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(50)
	// Pre-cancelled: rejected before any ranking work.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Do(pre, Request{Candidates: cands}); !errors.Is(err, context.Canceled) {
		t.Errorf("Do(pre-cancelled) = %v, want context.Canceled", err)
	}
	if _, err := r.DoParallel(pre, Request{Candidates: cands}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("DoParallel(pre-cancelled) = %v, want context.Canceled", err)
	}
	// Cancelled mid-sampling: the best-of-m loops observe the context
	// between draws and abort.
	seq := &errAfterCtx{Context: context.Background(), after: 3}
	if _, err := r.Do(seq, Request{Candidates: cands}); !errors.Is(err, context.Canceled) {
		t.Errorf("Do(cancel mid-loop) = %v, want context.Canceled", err)
	}
	if got := seq.calls.Load(); got >= 40 {
		t.Errorf("sequential loop ran %d context checks, expected an early abort", got)
	}
	par := &errAfterCtx{Context: context.Background(), after: 3}
	if _, err := r.DoParallel(par, Request{Candidates: cands}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("DoParallel(cancel mid-loop) = %v, want context.Canceled", err)
	}
	// Deadline propagation through the real context type.
	dl, cancelDL := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelDL()
	if _, err := r.Do(dl, Request{Candidates: cands}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Do(expired deadline) = %v, want context.DeadlineExceeded", err)
	}
}

func TestRequestValidation(t *testing.T) {
	r, err := NewRanker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(8)
	bad := []Request{
		{Candidates: cands, Theta: fptr(-1)},
		{Candidates: cands, Theta: fptr(math.NaN())},
		{Candidates: cands, Samples: iptr(0)},
		{Candidates: cands, Samples: iptr(-2)},
		{Candidates: cands, Criterion: "vibes"},
		{Candidates: cands, Tolerance: fptr(-0.5)},
		{Candidates: cands, Tolerance: fptr(math.NaN())},
		{Candidates: cands, TopK: iptr(0)},
		{Candidates: cands, TopK: iptr(-3)},
	}
	for i, req := range bad {
		if _, err := r.Do(context.Background(), req); err == nil {
			t.Errorf("request %d accepted: %+v", i, req)
		}
	}
}
