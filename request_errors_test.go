package fairrank

// Exact error-string tables for every rejectable field of Config and
// Request. These messages are API: the serving layer forwards them to
// clients verbatim (wrapped in its ErrInvalid prefix), so a wording
// change is a wire change and must show up as a test diff.

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestNewRankerRejectsExact(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
		is   error // optional sentinel the error must wrap
	}{
		{"unknown algorithm", Config{Algorithm: "quicksort"}, `fairrank: unknown algorithm "quicksort"`, ErrUnknownAlgorithm},
		{"unknown noise", Config{Noise: "fog"}, `fairrank: unknown noise "fog"`, ErrUnknownNoise},
		{"unknown central", Config{Central: "median"}, `fairrank: unknown central ranking "median"`, nil},
		{"unknown criterion", Config{Criterion: "vibes"}, `fairrank: unknown criterion "vibes"`, nil},
		{"unknown criterion, deterministic algorithm", Config{Algorithm: AlgorithmDetConstSort, Criterion: "vibes"}, `fairrank: unknown criterion "vibes"`, nil},
		{"negative theta", Config{Theta: -1}, "fairrank: dispersion θ = -1, want ≥ 0", nil},
		{"NaN theta", Config{Theta: math.NaN()}, "fairrank: dispersion θ = NaN, want ≥ 0", nil},
		{"+Inf theta", Config{Theta: math.Inf(1)}, "fairrank: dispersion θ = +Inf, want finite", nil},
		{"negative samples", Config{Samples: -3}, "fairrank: samples = -3, want ≥ 1", nil},
		{"negative tolerance", Config{Tolerance: -0.2}, "fairrank: tolerance = -0.2, want ≥ 0", nil},
		{"NaN tolerance", Config{Tolerance: math.NaN()}, "fairrank: tolerance = NaN, want ≥ 0", nil},
		{"negative sigma", Config{Sigma: -0.5}, "fairrank: constraint noise σ = -0.5, want ≥ 0", nil},
		{"NaN sigma", Config{Sigma: math.NaN()}, "fairrank: constraint noise σ = NaN, want ≥ 0", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRanker(tc.cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", tc.cfg)
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("error = %q, want exactly %q", got, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %v does not wrap the %v sentinel", err, tc.is)
			}
		})
	}
}

func TestRequestRejectsExact(t *testing.T) {
	r, err := NewRanker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ok := pool(6)
	cases := []struct {
		name string
		req  Request
		want string
		is   error
	}{
		{"unknown algorithm", Request{Candidates: ok, Algorithm: "quicksort"}, `fairrank: unknown algorithm "quicksort"`, ErrUnknownAlgorithm},
		{"unknown central", Request{Candidates: ok, Central: "median"}, `fairrank: unknown central ranking "median"`, nil},
		{"negative sigma", Request{Candidates: ok, Sigma: fptr(-0.5)}, "fairrank: constraint noise σ = -0.5, want ≥ 0", nil},
		{"NaN sigma", Request{Candidates: ok, Sigma: fptr(math.NaN())}, "fairrank: constraint noise σ = NaN, want ≥ 0", nil},
		{"zero weak-k", Request{Candidates: ok, WeakK: iptr(0)}, "fairrank: building central ranking: fairness: k = 0 outside [1,6]", nil},
		{"negative theta", Request{Candidates: ok, Theta: fptr(-1)}, "fairrank: request dispersion θ = -1, want ≥ 0", nil},
		{"NaN theta", Request{Candidates: ok, Theta: fptr(math.NaN())}, "fairrank: request dispersion θ = NaN, want ≥ 0", nil},
		{"+Inf theta", Request{Candidates: ok, Theta: fptr(math.Inf(1))}, "fairrank: request dispersion θ = +Inf, want finite", nil},
		{"zero samples", Request{Candidates: ok, Samples: iptr(0)}, "fairrank: request samples = 0, want ≥ 1", nil},
		{"negative samples", Request{Candidates: ok, Samples: iptr(-2)}, "fairrank: request samples = -2, want ≥ 1", nil},
		{"unknown criterion", Request{Candidates: ok, Criterion: "vibes"}, `fairrank: unknown criterion "vibes"`, nil},
		{"unknown noise", Request{Candidates: ok, Noise: "fog"}, `fairrank: unknown noise "fog"`, ErrUnknownNoise},
		{"negative tolerance", Request{Candidates: ok, Tolerance: fptr(-0.5)}, "fairrank: request tolerance -0.5, want ≥ 0", nil},
		{"NaN tolerance", Request{Candidates: ok, Tolerance: fptr(math.NaN())}, "fairrank: request tolerance NaN, want ≥ 0", nil},
		{"zero top-k", Request{Candidates: ok, TopK: iptr(0)}, "fairrank: request top-k = 0, want ≥ 1", nil},
		{"negative top-k", Request{Candidates: ok, TopK: iptr(-3)}, "fairrank: request top-k = -3, want ≥ 1", nil},
		{"no candidates", Request{}, "fairrank: no candidates", nil},
		{"empty ID", Request{Candidates: []Candidate{{ID: "", Score: 1, Group: "g"}}}, "fairrank: candidate 0 has empty ID", nil},
		{"duplicate ID", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "g"}, {ID: "x", Score: 1, Group: "h"},
		}}, `fairrank: duplicate candidate ID "x"`, nil},
		{"NaN score", Request{Candidates: []Candidate{
			{ID: "x", Score: math.NaN(), Group: "g"}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" has NaN score`, nil},
		{"empty group", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: ""}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" has empty Group`, nil},
		{"membership empty group name", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "g", Membership: map[string]float64{"": 1}}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" membership names an empty group`, nil},
		{"membership NaN", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "g", Membership: map[string]float64{"g": math.NaN()}}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" membership for group "g" is NaN, want in [0,1]`, nil},
		{"membership negative", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "g", Membership: map[string]float64{"g": -0.25}}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" membership for group "g" is -0.25, want in [0,1]`, nil},
		{"membership above one", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "g", Membership: map[string]float64{"g": 1.5}}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" membership for group "g" is 1.5, want in [0,1]`, nil},
		{"membership not normalized", Request{Candidates: []Candidate{
			{ID: "x", Score: 2, Group: "g", Membership: map[string]float64{"g": 0.5, "h": 0.3}}, {ID: "y", Score: 1, Group: "h"},
		}}, `fairrank: candidate "x" membership sums to 0.8, want 1`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := r.Do(context.Background(), tc.req)
			if err == nil {
				t.Fatal("request accepted")
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("error = %q, want exactly %q", got, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %v does not wrap the %v sentinel", err, tc.is)
			}
		})
	}
}

// TestOversizedTopKClampsNotRejects documents the one boundary that is
// deliberately NOT an error: a top-k beyond the pool size clamps to the
// full ranking.
func TestOversizedTopKClampsNotRejects(t *testing.T) {
	r, err := NewRanker(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cands := pool(6)
	res, err := r.Do(context.Background(), Request{Candidates: cands, TopK: iptr(1000)})
	if err != nil {
		t.Fatalf("oversized top-k rejected: %v", err)
	}
	if len(res.Ranking) != len(cands) || res.Diagnostics.TopK != len(cands) {
		t.Fatalf("oversized top-k returned %d of %d (diag %d), want the clamped full ranking",
			len(res.Ranking), len(cands), res.Diagnostics.TopK)
	}
}
