package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func pool(n int) []Candidate {
	groups := []string{"a", "b"}
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{
			ID:    fmt.Sprintf("c%03d", i),
			Score: float64(n - i),
			Group: groups[i%len(groups)],
		}
	}
	return out
}

func ptr[T any](v T) *T { return &v }

func TestValidationErrors(t *testing.T) {
	s := New(Config{Workers: 2})
	cases := []struct {
		name string
		req  RankRequest
		want string
	}{
		{"empty candidates", RankRequest{}, "empty candidate set"},
		{"empty id", RankRequest{Candidates: []Candidate{{ID: "", Score: 1, Group: "a"}}}, "empty id"},
		{"duplicate ids", RankRequest{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "a"}, {ID: "x", Score: 1, Group: "b"},
		}}, `duplicate candidate id "x"`},
		{"negative theta", RankRequest{Candidates: pool(4), Theta: ptr(-1.5)}, "theta = -1.5"},
		{"NaN theta", RankRequest{Candidates: pool(4), Theta: ptr(math.NaN())}, "theta = NaN"},
		{"zero samples", RankRequest{Candidates: pool(4), Samples: ptr(0)}, "samples = 0"},
		{"negative tolerance", RankRequest{Candidates: pool(4), Tolerance: ptr(-0.1)}, "tolerance = -0.1"},
		{"zero top_k", RankRequest{Candidates: pool(4), TopK: ptr(0)}, "top_k = 0"},
		{"negative weak_k", RankRequest{Candidates: pool(4), WeakK: -2}, "weak_k = -2"},
		{"negative sigma", RankRequest{Candidates: pool(4), Sigma: -1}, "sigma = -1"},
		{"NaN score", RankRequest{Candidates: []Candidate{
			{ID: "x", Score: math.NaN(), Group: "a"}, {ID: "y", Score: 1, Group: "b"},
		}}, "NaN score"},
		{"unknown algorithm", RankRequest{Candidates: pool(4), Algorithm: "quicksort"}, `unknown algorithm "quicksort"`},
		{"unknown central", RankRequest{Candidates: pool(4), Central: "median"}, `unknown central ranking "median"`},
		{"unknown criterion", RankRequest{Candidates: pool(4), Criterion: "vibes"}, `unknown criterion "vibes"`},
		{"unknown noise", RankRequest{Candidates: pool(4), Noise: "fog"}, `unknown noise "fog"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Rank(context.Background(), &tc.req)
			if err == nil {
				t.Fatal("accepted invalid request")
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error %v is not ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRankLimits(t *testing.T) {
	s := New(Config{Workers: 2, MaxCandidates: 10, MaxBatch: 2})
	if _, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(11)}); !errors.Is(err, ErrInvalid) {
		t.Errorf("oversized pool: got %v, want ErrInvalid", err)
	}
	batch := &BatchRequest{Requests: []RankRequest{
		{Candidates: pool(4)}, {Candidates: pool(4)}, {Candidates: pool(4)},
	}}
	if _, err := s.RankBatch(context.Background(), batch); !errors.Is(err, ErrInvalid) {
		t.Errorf("oversized batch: got %v, want ErrInvalid", err)
	}
	if _, err := s.RankBatch(context.Background(), &BatchRequest{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty batch: got %v, want ErrInvalid", err)
	}
}

func TestRankDefaultsAndShape(t *testing.T) {
	s := New(Config{Workers: 4})
	req := &RankRequest{Candidates: pool(12), Seed: 5}
	resp, err := s.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "mallows-best" {
		t.Errorf("default algorithm reported as %q", resp.Algorithm)
	}
	if len(resp.Ranking) != 12 {
		t.Fatalf("ranking has %d entries, want 12", len(resp.Ranking))
	}
	seen := map[string]bool{}
	for i, rc := range resp.Ranking {
		if rc.Rank != i+1 {
			t.Errorf("entry %d has rank %d", i, rc.Rank)
		}
		if seen[rc.ID] {
			t.Errorf("candidate %q ranked twice", rc.ID)
		}
		seen[rc.ID] = true
	}
	if resp.NDCG <= 0 || resp.NDCG > 1+1e-9 {
		t.Errorf("NDCG = %v", resp.NDCG)
	}
}

// Equal seeds must yield equal rankings: across repeated calls, across
// worker counts, and across single-vs-batch serving.
func TestEqualSeedDeterminism(t *testing.T) {
	req := func(seed int64) RankRequest {
		return RankRequest{Candidates: pool(40), Samples: ptr(12), Seed: seed}
	}
	base, err := New(Config{Workers: 1}).Rank(context.Background(), ptrReq(req(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		s := New(Config{Workers: workers})
		got, err := s.Rank(context.Background(), ptrReq(req(3)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Ranking, base.Ranking) {
			t.Fatalf("workers=%d changed the ranking", workers)
		}
	}
	other, err := New(Config{Workers: 2}).Rank(context.Background(), ptrReq(req(4)))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other.Ranking, base.Ranking) {
		t.Error("different seeds produced identical rankings (suspicious at n=40, m=12)")
	}
}

func ptrReq(r RankRequest) *RankRequest { return &r }

func TestBatchMatchesSingleAndIsDeterministic(t *testing.T) {
	s := New(Config{Workers: 4})
	batch := &BatchRequest{}
	for seed := int64(0); seed < 8; seed++ {
		batch.Requests = append(batch.Requests, RankRequest{
			Candidates: pool(25), Samples: ptr(8), Seed: seed,
		})
	}
	first, err := s.RankBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Items) != 8 {
		t.Fatalf("%d items, want 8", len(first.Items))
	}
	// Re-running the identical batch must reproduce it exactly.
	second, err := s.RankBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("equal-seed batches diverged")
	}
	// Each entry must match the single-request path.
	for i := range batch.Requests {
		if first.Items[i].Error != "" {
			t.Fatalf("item %d failed: %s", i, first.Items[i].Error)
		}
		single, err := s.Rank(context.Background(), &batch.Requests[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Ranking, first.Items[i].Response.Ranking) {
			t.Fatalf("item %d: batch ranking differs from single-request ranking", i)
		}
	}
}

// A bad entry fails alone; its neighbors still rank.
func TestBatchPartialFailure(t *testing.T) {
	s := New(Config{Workers: 2})
	batch := &BatchRequest{Requests: []RankRequest{
		{Candidates: pool(10), Seed: 1},
		{Candidates: nil, Seed: 2}, // invalid: empty pool
		{Candidates: pool(10), Algorithm: "nope", Seed: 3},
		{Candidates: pool(10), Seed: 4},
	}}
	resp, err := s.RankBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items[0].Error != "" || resp.Items[0].Response == nil {
		t.Errorf("item 0 should succeed: %+v", resp.Items[0])
	}
	if resp.Items[1].Error == "" {
		t.Error("item 1 should fail (empty candidates)")
	}
	if !strings.Contains(resp.Items[2].Error, "unknown algorithm") {
		t.Errorf("item 2 error = %q", resp.Items[2].Error)
	}
	if resp.Items[3].Error != "" || resp.Items[3].Response == nil {
		t.Errorf("item 3 should succeed: %+v", resp.Items[3])
	}
}

func TestRankCanceledContext(t *testing.T) {
	s := New(Config{Workers: 1})
	// Fill the only execution slot so the slot wait must block, then
	// cancel.
	s.queue.slots <- struct{}{}
	defer func() { <-s.queue.slots }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Rank(ctx, &RankRequest{Candidates: pool(5)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// Requests must not hold worker slots they cannot use: only the
// mallows-best sampling loop fans out, bounded by its draw count.
func TestParallelismBound(t *testing.T) {
	cases := []struct {
		req  RankRequest
		want int
	}{
		{RankRequest{}, 15},
		{RankRequest{Algorithm: "mallows-best", Samples: ptr(4)}, 4},
		{RankRequest{Samples: ptr(1)}, 1},
		{RankRequest{Algorithm: "score"}, 1},
		{RankRequest{Algorithm: "ilp"}, 1},
		{RankRequest{Algorithm: "mallows"}, 1},
		{RankRequest{Algorithm: "pl-best", Samples: ptr(6)}, 6},
		{RankRequest{Algorithm: "no-such-algorithm"}, 1},
	}
	for _, tc := range cases {
		if got := parallelism(&tc.req); got != tc.want {
			t.Errorf("parallelism(%+v) = %d, want %d", tc.req, got, tc.want)
		}
	}
}

// θ = 0 (uniform noise) and tolerance = 0 (exact proportionality) are
// real values on the wire, not "unset": the response must echo them in
// the diagnostics rather than silently substituting the defaults.
func TestExplicitZeroOverrides(t *testing.T) {
	s := New(Config{Workers: 2})
	resp, err := s.Rank(context.Background(), &RankRequest{
		Candidates: pool(12), Theta: ptr(0.0), Tolerance: ptr(0.0), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Diagnostics.Theta != 0 {
		t.Errorf("theta = 0 resolved to %v", resp.Diagnostics.Theta)
	}
	if resp.Diagnostics.Tolerance != 0 {
		t.Errorf("tolerance = 0 resolved to %v", resp.Diagnostics.Tolerance)
	}
	// Omitted fields still take the documented defaults.
	dflt, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(12), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dflt.Diagnostics.Theta != 1 || dflt.Diagnostics.Tolerance != 0.1 {
		t.Errorf("defaults resolved to θ=%v tol=%v", dflt.Diagnostics.Theta, dflt.Diagnostics.Tolerance)
	}
}

// Requests that differ in any wire field share the service's one
// engine; every field must still take full effect per request.
func TestPerRequestOverridesShareEngine(t *testing.T) {
	s := New(Config{Workers: 2})
	reqs := []RankRequest{
		{Candidates: pool(30), Theta: ptr(0.25), Samples: ptr(6), Seed: 11},
		{Candidates: pool(30), Theta: ptr(4.0), Samples: ptr(6), Seed: 11},
		{Candidates: pool(30), Algorithm: "detconstsort", Sigma: 0.5, Seed: 11},
		{Candidates: pool(30), Central: "fair", Seed: 11},
	}
	for _, req := range reqs {
		resp, err := s.Rank(context.Background(), &req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		d := resp.Diagnostics
		if req.Theta != nil && d.Theta != *req.Theta {
			t.Errorf("theta %v reported as %v", *req.Theta, d.Theta)
		}
		if req.Algorithm != "" && string(d.Algorithm) != req.Algorithm {
			t.Errorf("algorithm %q reported as %q", req.Algorithm, d.Algorithm)
		}
		if req.Central != "" && string(d.Central) != req.Central {
			t.Errorf("central %q reported as %q", req.Central, d.Central)
		}
	}
	if st := s.ranker.Stats(); st.Requests != int64(len(reqs)) {
		t.Errorf("the one engine served %d requests, want %d", st.Requests, len(reqs))
	}
}

// top_k truncates the response ranking, scopes the audit (and, for the
// best-of algorithms, the selection) to the delivered prefix, and stays
// deterministic per seed. For a single-draw algorithm — no selection —
// the prefix is exactly the head of the full ranking.
func TestTopK(t *testing.T) {
	s := New(Config{Workers: 2})
	top, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(20), TopK: ptr(5), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Ranking) != 5 || top.Diagnostics.TopK != 5 {
		t.Fatalf("top_k=5 returned %d entries (diag %d)", len(top.Ranking), top.Diagnostics.TopK)
	}
	again, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(20), TopK: ptr(5), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, again) {
		t.Error("equal top_k requests returned different responses")
	}
	full, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(20), Algorithm: "mallows", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	single, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(20), Algorithm: "mallows", TopK: ptr(5), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Ranking, full.Ranking[:5]) {
		t.Error("single-draw top_k ranking is not a prefix of the full ranking")
	}
	// Oversized top_k clamps to the pool.
	big, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(20), TopK: ptr(100), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Ranking) != 20 {
		t.Errorf("top_k=100 over 20 candidates returned %d entries", len(big.Ranking))
	}
}

// The diagnostics block is internally consistent and mirrors the
// top-level fields kept for older clients.
func TestDiagnosticsShape(t *testing.T) {
	s := New(Config{Workers: 2})
	resp, err := s.Rank(context.Background(), &RankRequest{
		Candidates: pool(16), Samples: ptr(7), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Diagnostics
	if string(d.Algorithm) != resp.Algorithm || d.NDCG != resp.NDCG {
		t.Errorf("diagnostics disagree with top-level fields: %+v", d)
	}
	if d.DrawsEvaluated != 7 {
		t.Errorf("draws_evaluated = %d, want 7", d.DrawsEvaluated)
	}
	if d.Seed != 2 || d.TopK != 16 || d.Central != "weak" || d.Criterion != "ndcg" {
		t.Errorf("resolved parameters wrong: %+v", d)
	}
	want := 100 * (1 - float64(d.InfeasibleIndex)/float64(d.TopK))
	if math.Abs(d.PPfair-want) > 1e-9 {
		t.Errorf("ppfair %v inconsistent with infeasible index %d", d.PPfair, d.InfeasibleIndex)
	}
	if d.CentralKendallTau < 0 {
		t.Errorf("central KT = %d", d.CentralKendallTau)
	}
}

// A cancelled context aborts every batch entry promptly and surfaces as
// a batch-level cancellation error (the HTTP layer maps it to 499), not
// as a bad request and not as a 200 full of error items.
func TestBatchCancelledContext(t *testing.T) {
	s := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := &BatchRequest{}
	for seed := int64(0); seed < 6; seed++ {
		batch.Requests = append(batch.Requests, RankRequest{Candidates: pool(30), Seed: seed})
	}
	if _, err := s.RankBatch(ctx, batch); !errors.Is(err, context.Canceled) {
		t.Errorf("batch: got %v, want context.Canceled", err)
	} else if errors.Is(err, ErrInvalid) {
		t.Error("batch cancellation misclassified as ErrInvalid")
	}
	if _, err := s.Rank(ctx, &batch.Requests[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("single rank: got %v, want context.Canceled", err)
	} else if errors.Is(err, ErrInvalid) {
		t.Error("cancellation misclassified as ErrInvalid")
	}
}

// The catalog names every algorithm the serving path accepts, with
// resolvable defaults.
func TestCatalog(t *testing.T) {
	cat := Catalog()
	names := map[string]bool{}
	for _, a := range cat.Algorithms {
		names[a.Name] = true
	}
	s := New(Config{Workers: 2})
	for name := range names {
		if _, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(16), Algorithm: name, Seed: 1}); err != nil {
			t.Errorf("catalog algorithm %q not rankable: %v", name, err)
		}
	}
	for _, want := range []string{"mallows", "mallows-best", "detconstsort", "ipf", "grbinary", "ilp", "score"} {
		if !names[want] {
			t.Errorf("catalog missing algorithm %q", want)
		}
	}
	if cat.Defaults.Theta != 1 || cat.Defaults.Samples != 15 || cat.Defaults.Tolerance != 0.1 {
		t.Errorf("catalog defaults %+v disagree with the library", cat.Defaults)
	}
	if len(cat.Centrals) != 3 || len(cat.Criteria) != 2 {
		t.Errorf("catalog lists %d centrals, %d criteria", len(cat.Centrals), len(cat.Criteria))
	}
}

// All algorithms are reachable through the service.
func TestAllAlgorithms(t *testing.T) {
	s := New(Config{Workers: 2})
	for _, algo := range []string{"mallows", "mallows-best", "detconstsort", "ipf", "ilp", "score"} {
		resp, err := s.Rank(context.Background(), &RankRequest{
			Candidates: pool(16), Algorithm: algo, Seed: 1,
		})
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if resp.Algorithm != algo {
			t.Errorf("%s reported as %q", algo, resp.Algorithm)
		}
	}
	// grbinary requires exactly two groups, which pool provides.
	if _, err := s.Rank(context.Background(), &RankRequest{Candidates: pool(16), Algorithm: "grbinary", Seed: 1}); err != nil {
		t.Errorf("grbinary: %v", err)
	}
}
