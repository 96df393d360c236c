package aggregate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/rankdist"
)

func randomVotes(rng *rand.Rand, n, count int) []perm.Perm {
	votes := make([]perm.Perm, count)
	for i := range votes {
		votes[i] = perm.Random(n, rng)
	}
	return votes
}

// bruteKemeny enumerates all permutations.
func bruteKemeny(t *testing.T, votes []perm.Perm) (perm.Perm, int64) {
	t.Helper()
	var best perm.Perm
	bestCost := int64(math.MaxInt64)
	perm.All(len(votes[0]), func(p perm.Perm) bool {
		c, err := KemenyCost(p, votes)
		if err != nil {
			t.Fatal(err)
		}
		if c < bestCost {
			bestCost = c
			best = p.Clone()
		}
		return true
	})
	return best, bestCost
}

func TestKemenyExactMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5) // 2..6
		votes := randomVotes(rng, n, 1+rng.Intn(7))
		_, wantCost := bruteKemeny(t, votes)
		got, cost, err := KemenyExact(votes)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if cost != wantCost {
			t.Fatalf("Kemeny cost %d, brute %d (votes=%v)", cost, wantCost, votes)
		}
		// The reported cost must match the actual cost of the ranking.
		actual, err := KemenyCost(got, votes)
		if err != nil {
			t.Fatal(err)
		}
		if actual != cost {
			t.Fatalf("reported %d, ranking costs %d", cost, actual)
		}
	}
}

func TestKemenyExactUnanimous(t *testing.T) {
	v := perm.MustNew(3, 1, 0, 2)
	got, cost, err := KemenyExact([]perm.Perm{v.Clone(), v.Clone(), v.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || !got.Equal(v) {
		t.Fatalf("unanimous aggregate = %v (cost %d), want %v", got, cost, v)
	}
}

func TestKemenyExactLimits(t *testing.T) {
	if _, _, err := KemenyExact(nil); err == nil {
		t.Error("accepted no votes")
	}
	big := []perm.Perm{perm.Identity(MaxKemenyItems + 1)}
	if _, _, err := KemenyExact(big); err == nil {
		t.Error("accepted oversized instance")
	}
	if _, _, err := KemenyExact([]perm.Perm{perm.Identity(3), perm.Identity(4)}); err == nil {
		t.Error("accepted ragged votes")
	}
	if _, _, err := KemenyExact([]perm.Perm{{0, 0, 1}}); err == nil {
		t.Error("accepted invalid vote")
	}
}

// bruteFootrule enumerates all permutations for the footrule objective.
func bruteFootrule(t *testing.T, votes []perm.Perm) int64 {
	t.Helper()
	best := int64(math.MaxInt64)
	perm.All(len(votes[0]), func(p perm.Perm) bool {
		var total int64
		for _, v := range votes {
			f, err := rankdist.Footrule(p, v)
			if err != nil {
				t.Fatal(err)
			}
			total += f
		}
		if total < best {
			best = total
		}
		return true
	})
	return best
}

func TestFootruleMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		votes := randomVotes(rng, n, 1+rng.Intn(6))
		want := bruteFootrule(t, votes)
		got, cost, err := Footrule(votes)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if cost != want {
			t.Fatalf("footrule cost %d, brute %d", cost, want)
		}
		var actual int64
		for _, v := range votes {
			f, err := rankdist.Footrule(got, v)
			if err != nil {
				t.Fatal(err)
			}
			actual += f
		}
		if actual != cost {
			t.Fatalf("reported %d, ranking costs %d", cost, actual)
		}
	}
}

func TestFootruleTwoApproxOfKemeny(t *testing.T) {
	// Diaconis–Graham per vote: KT ≤ footrule ≤ 2·KT, so the footrule
	// median's Kemeny cost is at most twice the Kemeny optimum.
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		votes := randomVotes(rng, n, 3+rng.Intn(5))
		fr, _, err := Footrule(votes)
		if err != nil {
			t.Fatal(err)
		}
		frCost, err := KemenyCost(fr, votes)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := KemenyExact(votes)
		if err != nil {
			t.Fatal(err)
		}
		if frCost > 2*opt {
			t.Fatalf("footrule median Kemeny cost %d > 2×optimum %d", frCost, opt)
		}
	}
}

func TestBordaRecoversMallowsCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	truth := perm.Random(9, rng)
	model, err := mallows.New(truth, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Borda(model.SampleN(3000, rng))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(truth) {
		t.Fatalf("Borda %v, want Mallows center %v", got, truth)
	}
	if _, err := Borda(nil); err == nil {
		t.Error("accepted no votes")
	}
}

func TestAggregatorsAgreeOnUnanimity(t *testing.T) {
	v := perm.MustNew(2, 4, 0, 3, 1)
	votes := []perm.Perm{v.Clone(), v.Clone()}
	k, _, err := KemenyExact(votes)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Footrule(votes)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := Borda(votes)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []perm.Perm{k, f, bo} {
		if !got.Equal(v) {
			t.Fatalf("unanimous aggregate = %v, want %v", got, v)
		}
	}
}
