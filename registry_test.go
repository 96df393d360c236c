package fairrank_test

// Tests for the algorithm registry and the noise catalog: registration
// validation, ErrUnknown* classification at the library layer, custom
// strategies ranking end to end through Ranker.Do, and Register racing
// Do (the latter meaningful under `go test -race`, which CI runs).
//
// Everything here uses only the public API — these tests double as the
// proof that a third-party package could do the same.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	fairrank "repro"
)

// registerOnce registers an algorithm, tolerating the duplicate error a
// repeated in-process run (go test -count=2) produces — the registry is
// process-global and first-registration-wins.
func registerOnce(t *testing.T, info fairrank.AlgorithmInfo, f fairrank.Factory) {
	t.Helper()
	if err := fairrank.Register(info, f); err != nil && !errors.Is(err, fairrank.ErrDuplicateAlgorithm) {
		t.Fatal(err)
	}
}

// registryPool builds a two-group pool with group-biased scores.
func registryPool(n int) []fairrank.Candidate {
	out := make([]fairrank.Candidate, n)
	for i := range out {
		g := "a"
		if i%2 == 1 {
			g = "b"
		}
		out[i] = fairrank.Candidate{ID: "r" + strconv.Itoa(i), Score: float64(n - i), Group: g}
	}
	return out
}

// reverseStrategy ranks worst-first relative to the central ranking — a
// deliberately simple, deterministic custom Strategy.
var reverseStrategy = fairrank.StrategyFunc(func(in *fairrank.Instance, _ *rand.Rand) ([]int, error) {
	c := in.Central()
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	return c, nil
})

func TestRegisterValidation(t *testing.T) {
	if err := fairrank.Register(fairrank.AlgorithmInfo{}, nil); err == nil {
		t.Error("accepted an empty algorithm name")
	}
	if err := fairrank.Register(fairrank.AlgorithmInfo{Name: "test-nofactory"}, nil); err == nil {
		t.Error("accepted a nil factory for a non-sampling algorithm")
	}
	if err := fairrank.Register(fairrank.AlgorithmInfo{Name: "test-badgroups", MinGroups: 3, MaxGroups: 2},
		func(fairrank.Config) (fairrank.Strategy, error) { return reverseStrategy, nil }); err == nil {
		t.Error("accepted MinGroups > MaxGroups")
	}
	if err := fairrank.Register(fairrank.AlgorithmInfo{Name: "test-badnoise", Sampling: true, Noise: "no-such-noise"}, nil); !errors.Is(err, fairrank.ErrUnknownNoise) {
		t.Errorf("pinning an unregistered noise: got %v, want ErrUnknownNoise", err)
	}
}

func TestRegisterDuplicateRejected(t *testing.T) {
	factory := func(fairrank.Config) (fairrank.Strategy, error) { return reverseStrategy, nil }
	info := fairrank.AlgorithmInfo{Name: "test:dup", Description: "first registration wins"}
	registerOnce(t, info, factory)
	if err := fairrank.Register(info, factory); !errors.Is(err, fairrank.ErrDuplicateAlgorithm) {
		t.Errorf("second Register: got %v, want ErrDuplicateAlgorithm", err)
	}
	// Built-in names are protected the same way.
	if err := fairrank.Register(fairrank.AlgorithmInfo{Name: string(fairrank.AlgorithmMallows)}, factory); !errors.Is(err, fairrank.ErrDuplicateAlgorithm) {
		t.Errorf("shadowing a built-in: got %v, want ErrDuplicateAlgorithm", err)
	}
}

func TestUnknownNamesSurfaceSentinels(t *testing.T) {
	if _, err := fairrank.NewRanker(fairrank.Config{Algorithm: "no-such-algorithm"}); !errors.Is(err, fairrank.ErrUnknownAlgorithm) {
		t.Errorf("NewRanker: got %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := fairrank.Rank(registryPool(6), fairrank.Config{Algorithm: "no-such-algorithm"}); !errors.Is(err, fairrank.ErrUnknownAlgorithm) {
		t.Errorf("Rank: got %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := fairrank.NewRanker(fairrank.Config{Noise: "no-such-noise"}); !errors.Is(err, fairrank.ErrUnknownNoise) {
		t.Errorf("NewRanker: got %v, want ErrUnknownNoise", err)
	}
	r, err := fairrank.NewRanker(fairrank.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Do(context.Background(), fairrank.Request{Candidates: registryPool(6), Noise: "no-such-noise"})
	if !errors.Is(err, fairrank.ErrUnknownNoise) {
		t.Errorf("Do with unknown noise override: got %v, want ErrUnknownNoise", err)
	}
}

// A custom Strategy registered through the public API must rank end to
// end through Ranker.Do, appear in Algorithms(), and audit like any
// built-in.
func TestCustomStrategyRankable(t *testing.T) {
	registerOnce(t, fairrank.AlgorithmInfo{
		Name:          "test:reverse",
		Description:   "central ranking reversed (test strategy)",
		Deterministic: true,
	}, func(cfg fairrank.Config) (fairrank.Strategy, error) {
		return reverseStrategy, nil
	})
	found := false
	for _, a := range fairrank.Algorithms() {
		if a.Name == "test:reverse" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered algorithm missing from Algorithms()")
	}
	r, err := fairrank.NewRanker(fairrank.Config{Algorithm: "test:reverse", Central: fairrank.CentralScoreOrder})
	if err != nil {
		t.Fatal(err)
	}
	pool := registryPool(10)
	res, err := r.Do(context.Background(), fairrank.Request{Candidates: pool})
	if err != nil {
		t.Fatal(err)
	}
	// The score-order central reversed is worst-first.
	for i, c := range res.Ranking {
		if want := pool[len(pool)-1-i].ID; c.ID != want {
			t.Fatalf("rank %d: got %s, want %s", i, c.ID, want)
		}
	}
	if d := res.Diagnostics; d.Algorithm != "test:reverse" || d.DrawsEvaluated != 0 || d.Noise != "" {
		t.Errorf("diagnostics: %+v", d)
	}
}

// A defective Strategy must surface as an error, not as a corrupted
// ranking or an out-of-range panic in the audit.
func TestDefectiveStrategyRejected(t *testing.T) {
	cases := map[string]fairrank.StrategyFunc{
		"test:short": func(in *fairrank.Instance, _ *rand.Rand) ([]int, error) {
			return in.Central()[:in.N()-1], nil
		},
		"test:dupidx": func(in *fairrank.Instance, _ *rand.Rand) ([]int, error) {
			c := in.Central()
			c[0] = c[1]
			return c, nil
		},
	}
	for name, strat := range cases {
		strat := strat
		registerOnce(t, fairrank.AlgorithmInfo{Name: name, Description: "defective test strategy"},
			func(fairrank.Config) (fairrank.Strategy, error) { return strat, nil })
		r, err := fairrank.NewRanker(fairrank.Config{Algorithm: fairrank.Algorithm(name)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Do(context.Background(), fairrank.Request{Candidates: registryPool(8)}); err == nil {
			t.Errorf("%s: defective output accepted", name)
		}
	}
}

// Registry metadata gates dispatch: an algorithm declaring group bounds
// is rejected cleanly outside them.
func TestGroupBoundsEnforced(t *testing.T) {
	three := registryPool(9)
	three[0].Group = "c"
	if _, err := fairrank.Rank(three, fairrank.Config{Algorithm: fairrank.AlgorithmGrBinary}); err == nil {
		t.Error("grbinary accepted three groups")
	}
}

// pl-best is the engine-managed best-of-m loop with the mechanism
// pinned to Plackett–Luce, so it must match mallows-best with the noise
// override, draw for draw.
func TestPLBestMatchesNoiseOverride(t *testing.T) {
	pool := registryPool(30)
	seed := int64(11)
	pl, err := fairrank.NewRanker(fairrank.Config{Algorithm: fairrank.AlgorithmPlackettLuce, Theta: 0.3, Samples: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	overridden, err := fairrank.NewRanker(fairrank.Config{Algorithm: fairrank.AlgorithmMallowsBest, Noise: fairrank.NoisePlackettLuce, Theta: 0.3, Samples: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pl.Do(context.Background(), fairrank.Request{Candidates: pool})
	if err != nil {
		t.Fatal(err)
	}
	b, err := overridden.Do(context.Background(), fairrank.Request{Candidates: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ranking, b.Ranking) {
		t.Error("pl-best diverged from mallows-best with the plackett-luce noise override")
	}
	if a.Diagnostics.Noise != fairrank.NoisePlackettLuce || a.Diagnostics.DrawsEvaluated != 8 {
		t.Errorf("pl-best diagnostics: %+v", a.Diagnostics)
	}
}

// Every noise mechanism must serve deterministically (equal
// seeds ⇒ equal rankings) and invariantly across DoParallel worker
// counts.
func TestNoiseMechanismsDeterministic(t *testing.T) {
	pool := registryPool(40)
	for _, n := range fairrank.Noises() {
		n := n
		t.Run(n.Name, func(t *testing.T) {
			r, err := fairrank.NewRanker(fairrank.Config{Theta: 0.5, Samples: 6})
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(3)
			req := fairrank.Request{Candidates: pool, Noise: fairrank.Noise(n.Name), Seed: &seed}
			first, err := r.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			again, err := r.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.Ranking, again.Ranking) {
				t.Fatal("equal seeds diverged")
			}
			if first.Diagnostics.Noise != fairrank.Noise(n.Name) {
				t.Fatalf("diagnostics noise = %q", first.Diagnostics.Noise)
			}
			base, err := r.DoParallel(context.Background(), req, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5, 16} {
				got, err := r.DoParallel(context.Background(), req, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Ranking, base.Ranking) {
					t.Fatalf("workers=%d changed the ranking", workers)
				}
			}
		})
	}
}

// AttributeBlind is the registry's statement of the paper's thesis: the
// entry never reads the protected attribute. On the score-order central,
// which no group label enters, every blind entry's DoParallel rankings
// must be bit-identical per seed whatever the labels say — renamed (in
// an order that permutes the group ids), collapsed to one group, or
// with memberships added — for full and top-k requests alike. A
// group-reading entry is the control: the same relabelings must change
// its output, or the check proves nothing.
func TestAttributeBlindIgnoresGroupLabels(t *testing.T) {
	// Group "a" holds the top scores, so fairness-aware entries reorder.
	base := make([]fairrank.Candidate, 24)
	for i := range base {
		g := "a"
		if i >= len(base)/2 {
			g = "b"
		}
		base[i] = fairrank.Candidate{ID: "c" + strconv.Itoa(i), Score: float64(len(base) - i), Group: g}
	}
	relabel := func(f func(i int, c *fairrank.Candidate)) []fairrank.Candidate {
		out := append([]fairrank.Candidate(nil), base...)
		for i := range out {
			f(i, &out[i])
		}
		return out
	}
	variants := map[string][]fairrank.Candidate{
		"renamed": relabel(func(_ int, c *fairrank.Candidate) {
			c.Group = map[string]string{"a": "zeta", "b": "alpha"}[c.Group]
		}),
		"collapsed": relabel(func(_ int, c *fairrank.Candidate) { c.Group = "all" }),
		"memberships": relabel(func(i int, c *fairrank.Candidate) {
			c.Membership = [](map[string]float64){
				{c.Group: 1},
				{"a": 0.5, "b": 0.5},
				{c.Group: 0.75, "x": 0.25},
			}[i%3]
		}),
	}
	rank := func(algorithm string, cands []fairrank.Candidate, topK *int, seed int64) []string {
		t.Helper()
		r, err := fairrank.NewRanker(fairrank.Config{Algorithm: fairrank.Algorithm(algorithm), Central: fairrank.CentralScoreOrder})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.DoParallel(context.Background(), fairrank.Request{Candidates: cands, TopK: topK, Seed: &seed}, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(res.Ranking))
		for i, c := range res.Ranking {
			ids[i] = c.ID
		}
		return ids
	}
	k := 5
	var blind []string
	for _, a := range fairrank.Algorithms() {
		if a.AttributeBlind && !strings.HasPrefix(a.Name, "test:") {
			blind = append(blind, a.Name)
		}
	}
	if len(blind) == 0 {
		t.Fatal("no attribute-blind entry in the registry")
	}
	for _, name := range blind {
		for _, topK := range []*int{nil, &k} {
			for seed := int64(1); seed <= 3; seed++ {
				want := rank(name, base, topK, seed)
				for variant, cands := range variants {
					if got := rank(name, cands, topK, seed); !reflect.DeepEqual(got, want) {
						t.Errorf("%s (top_k %v, seed %d): %s labels changed the ranking\n got %v\nwant %v", name, topK != nil, seed, variant, got, want)
					}
				}
			}
		}
	}
	control := string(fairrank.AlgorithmDetConstSort)
	if info, ok := fairrank.LookupAlgorithm(control); !ok || info.AttributeBlind {
		t.Fatalf("control %q missing or flagged attribute-blind", control)
	}
	if reflect.DeepEqual(rank(control, variants["collapsed"], nil, 1), rank(control, base, nil, 1)) {
		t.Errorf("collapsing the groups left the group-reading %s unchanged: the relabelings do not reach the attribute", control)
	}
}

var raceSeq atomic.Int64

// Register must be safe while Rankers serve traffic: CI runs this under
// -race.
func TestRegisterRacingDo(t *testing.T) {
	r, err := fairrank.NewRanker(fairrank.Config{Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := registryPool(20)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// raceSeq keeps names unique across repeated in-process
				// runs (go test -count=N), so every pass registers live.
				err := fairrank.Register(fairrank.AlgorithmInfo{
					Name:        fmt.Sprintf("test:race-%d", raceSeq.Add(1)),
					Description: "race test strategy",
				}, func(fairrank.Config) (fairrank.Strategy, error) { return reverseStrategy, nil })
				if err != nil {
					errs <- err
					return
				}
				fairrank.Algorithms() // concurrent snapshot reads
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := r.Do(context.Background(), fairrank.Request{Candidates: pool}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
