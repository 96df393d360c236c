package conformance

// The negative suite: deliberately defective strategies, registered
// under the "test:" prefix (so registry-derived runs skip them), and a
// defective noise mechanism's measurements must be flagged with
// actionable violation reports. This is the proof that a green
// conformance run means something.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	fairrank "repro"
	"repro/internal/scenario"
)

var registerBroken sync.Once

// brokenNames returns the registry entries of the negative suite,
// registering them on first use.
func brokenInfos(t *testing.T) map[string]fairrank.AlgorithmInfo {
	t.Helper()
	registerBroken.Do(func() {
		// Claims exact fairness and near-ideal quality, delivers the
		// reverse of the central ranking: both floors must trip.
		fairrank.MustRegister(fairrank.AlgorithmInfo{
			Name:           "test:broken-unfair",
			Description:    "negative-test strategy: reverses the central ranking while advertising high floors",
			AttributeBlind: true,
			Deterministic:  true,
			Guarantees:     fairrank.Guarantees{MinMeanPPfair: 95, MinMeanNDCG: 0.95},
		}, func(cfg fairrank.Config) (fairrank.Strategy, error) {
			return fairrank.StrategyFunc(func(in *fairrank.Instance, rng *rand.Rand) ([]int, error) {
				c := in.Central()
				for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
					c[i], c[j] = c[j], c[i]
				}
				return c, nil
			}), nil
		})
		// Claims determinism, shuffles with the engine RNG: the
		// determinism-flag check must trip.
		fairrank.MustRegister(fairrank.AlgorithmInfo{
			Name:          "test:broken-claims-deterministic",
			Description:   "negative-test strategy: claims Deterministic but shuffles per seed",
			Deterministic: true,
		}, func(cfg fairrank.Config) (fairrank.Strategy, error) {
			return fairrank.StrategyFunc(func(in *fairrank.Instance, rng *rand.Rand) ([]int, error) {
				c := in.Central()
				rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
				return c, nil
			}), nil
		})
		// Returns a non-permutation: the engine rejects every draw, so
		// the report must carry a draw-error.
		fairrank.MustRegister(fairrank.AlgorithmInfo{
			Name:        "test:broken-invalid",
			Description: "negative-test strategy: returns duplicate indices",
		}, func(cfg fairrank.Config) (fairrank.Strategy, error) {
			return fairrank.StrategyFunc(func(in *fairrank.Instance, rng *rand.Rand) ([]int, error) {
				return make([]int, in.N()), nil
			}), nil
		})
	})
	out := map[string]fairrank.AlgorithmInfo{}
	for _, name := range []string{"test:broken-unfair", "test:broken-claims-deterministic", "test:broken-invalid"} {
		info, ok := fairrank.LookupAlgorithm(name)
		if !ok {
			t.Fatalf("negative-suite algorithm %q not registered", name)
		}
		out[name] = info
	}
	return out
}

// violationsBy indexes a report's violations by check.
func violationsBy(rep *Report) map[Check][]Violation {
	out := map[Check][]Violation{}
	for _, v := range rep.Violations {
		out[v.Check] = append(out[v.Check], v)
	}
	return out
}

func TestBrokenStrategyFailsFloors(t *testing.T) {
	infos := brokenInfos(t)
	rep, err := Run(context.Background(), Config{
		Draws:      20,
		Algorithms: []fairrank.AlgorithmInfo{infos["test:broken-unfair"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("a strategy delivering the reverse of its advertised behavior passed conformance")
	}
	by := violationsBy(rep)
	if len(by[CheckPPfairFloor]) == 0 {
		t.Error("no ppfair-floor violation for a maximally unfair strategy")
	}
	if len(by[CheckNDCGFloor]) == 0 {
		t.Error("no ndcg-floor violation for a quality-destroying strategy")
	}
	// The report must be actionable: name the pair, the workload, the
	// observed-vs-bound gap, and what to change.
	for _, v := range append(by[CheckPPfairFloor], by[CheckNDCGFloor]...) {
		if v.Algorithm != "test:broken-unfair" || v.Scenario == "" {
			t.Errorf("violation lacks its pair/scenario coordinates: %+v", v)
		}
		if v.CI == nil || v.Bound == 0 {
			t.Errorf("violation lacks its statistical evidence: %+v", v)
		}
		if !strings.Contains(v.Detail, "AlgorithmInfo.Guarantees") {
			t.Errorf("violation detail is not actionable: %q", v.Detail)
		}
	}
	// And it must not cry wolf on the checks the strategy honors: the
	// reversal is deterministic and seed-clean.
	if len(by[CheckDeterminismFlag]) != 0 || len(by[CheckSeedReproducibility]) != 0 {
		t.Errorf("spurious determinism/reproducibility violations: %v", rep.Violations)
	}
}

func TestBrokenDeterminismClaimIsFlagged(t *testing.T) {
	infos := brokenInfos(t)
	rep, err := Run(context.Background(), Config{
		Draws:      10,
		Algorithms: []fairrank.AlgorithmInfo{infos["test:broken-claims-deterministic"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	by := violationsBy(rep)
	if len(by[CheckDeterminismFlag]) == 0 {
		t.Fatalf("a seed-dependent strategy claiming Deterministic passed; violations: %v", rep.Violations)
	}
	if d := by[CheckDeterminismFlag][0].Detail; !strings.Contains(d, "Deterministic") {
		t.Errorf("determinism violation detail is not actionable: %q", d)
	}
}

func TestBrokenOutputIsFlagged(t *testing.T) {
	infos := brokenInfos(t)
	rep, err := Run(context.Background(), Config{
		Draws:      5,
		Algorithms: []fairrank.AlgorithmInfo{infos["test:broken-invalid"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	by := violationsBy(rep)
	if len(by[CheckDrawError]) == 0 {
		t.Fatalf("a strategy returning non-permutations passed; violations: %v", rep.Violations)
	}
	if d := by[CheckDrawError][0].Detail; !strings.Contains(d, "replay") && !strings.Contains(d, "failed") {
		t.Errorf("draw-error detail carries no reproduction hint: %q", d)
	}
}

// A noise mechanism whose θ = 0 is not uniform must trip the
// uniform-limit check. One that always returns the central measures a
// Kendall tau of 0 to it on every draw; a uniform one averages
// n(n−1)/4, which must pass.
func TestBrokenNoiseFailsUniformLimit(t *testing.T) {
	specs, err := scenario.Corpus("conformance")
	if err != nil {
		t.Fatal(err)
	}
	n := specs[0].N
	constant := make([]float64, 40)
	mean, v := uniformLimit(constant, n)
	if v == nil {
		t.Fatalf("a constant mechanism (mean Kendall tau %v at n = %d) passed the θ=0 uniform-limit check", mean, n)
	}
	if v.Check != CheckUniformLimit || v.Observed != 0 || v.Bound != float64(n*(n-1))/4 {
		t.Errorf("uniform-limit violation %+v", *v)
	}
	if !strings.Contains(v.Detail, "θ=0") || !strings.Contains(v.Detail, "zero-dispersion branch") {
		t.Errorf("uniform-limit detail is not actionable: %q", v.Detail)
	}
	uniform := make([]float64, 40)
	for i := range uniform {
		uniform[i] = float64(n*(n-1)) / 4
	}
	if _, v := uniformLimit(uniform, n); v != nil {
		t.Errorf("a series at the uniform mean failed the uniform-limit check: %+v", *v)
	}
}

// TestRegistryDerivedRunsSkipTestEntries: once the negative suite has
// registered its broken strategies, a registry-derived run must still
// be green — the "test:" convention keeps throwaway entries out.
func TestRegistryDerivedRunsSkipTestEntries(t *testing.T) {
	brokenInfos(t)
	specs, err := scenario.Corpus("conformance")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{Draws: 10, Scenarios: specs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Pairs {
		if strings.HasPrefix(p.Algorithm, testPrefix) {
			t.Errorf("registry-derived run picked up test entry %s×%s", p.Algorithm, p.Noise)
		}
	}
}
