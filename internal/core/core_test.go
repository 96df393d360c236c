package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
	"repro/internal/quality"
	"repro/internal/rankdist"
)

func TestPostProcessValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PostProcess(perm.Identity(5), Config{Theta: -1, Samples: 1}, rng); err == nil {
		t.Error("accepted negative theta")
	}
	if _, err := PostProcess(perm.Identity(5), Config{Theta: 1, Samples: 0}, rng); err == nil {
		t.Error("accepted zero samples")
	}
	if _, err := PostProcess(perm.Perm{0, 0}, Config{Theta: 1, Samples: 1}, rng); err == nil {
		t.Error("accepted invalid central")
	}
}

func TestPostProcessReturnsValidPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, theta := range []float64{0, 0.5, 3} {
		p, err := PostProcess(perm.Random(20, rng), Config{Theta: theta, Samples: 3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPostProcessHighThetaStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	central := perm.Random(15, rng)
	p, err := PostProcess(central, Config{Theta: 20, Samples: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rankdist.KendallTau(p, central)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("θ=20 sample at distance %d from central", d)
	}
}

func TestPostProcessBestOfImprovesCriterion(t *testing.T) {
	// With the KT criterion, best-of-m is stochastically closer to the
	// central ranking than a single draw. Compare means over trials.
	rngA := rand.New(rand.NewSource(4))
	rngB := rand.New(rand.NewSource(4))
	central := perm.Identity(12)
	crit := KTCriterion{Reference: central}
	var one, best float64
	const trials = 300
	for i := 0; i < trials; i++ {
		p1, err := PostProcess(central, Config{Theta: 0.3, Samples: 1, Criterion: crit}, rngA)
		if err != nil {
			t.Fatal(err)
		}
		d1, _ := rankdist.KendallTau(p1, central)
		one += float64(d1)
		p15, err := PostProcess(central, Config{Theta: 0.3, Samples: 15, Criterion: crit}, rngB)
		if err != nil {
			t.Fatal(err)
		}
		d15, _ := rankdist.KendallTau(p15, central)
		best += float64(d15)
	}
	if best >= one {
		t.Fatalf("best-of-15 mean distance %v not better than single-draw %v", best/trials, one/trials)
	}
}

func TestPostProcessNilCriterionConsumesDeterministicStream(t *testing.T) {
	// With the same seed, nil criterion and m samples must return the
	// first sample and leave the RNG in the same state as scoring runs —
	// i.e. exactly m draws consumed.
	central := perm.Identity(8)
	rng1 := rand.New(rand.NewSource(5))
	p1, err := PostProcess(central, Config{Theta: 1, Samples: 4}, rng1)
	if err != nil {
		t.Fatal(err)
	}
	after1 := rng1.Int63()

	rng2 := rand.New(rand.NewSource(5))
	first, err := PostProcess(central, Config{Theta: 1, Samples: 1}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Equal(first) {
		t.Fatalf("nil criterion returned %v, want first sample %v", p1, first)
	}
	// Draw the remaining 3 samples manually; stream must align.
	for i := 0; i < 3; i++ {
		if _, err := PostProcess(central, Config{Theta: 1, Samples: 1}, rng2); err != nil {
			t.Fatal(err)
		}
	}
	if after2 := rng2.Int63(); after1 != after2 {
		t.Fatalf("RNG streams diverged: %d vs %d", after1, after2)
	}
}

func TestCriteriaScores(t *testing.T) {
	scores := quality.Scores{3, 2, 1}
	id := perm.Identity(3)
	rev := id.Reverse()

	n := NDCGCriterion{Scores: scores}
	vID, err := n.Score(id)
	if err != nil {
		t.Fatal(err)
	}
	vRev, err := n.Score(rev)
	if err != nil {
		t.Fatal(err)
	}
	if vID != 1 || vRev >= vID {
		t.Fatalf("NDCG criterion: id=%v rev=%v", vID, vRev)
	}
	if n.Name() != "ndcg" {
		t.Error("NDCG name")
	}

	k := KTCriterion{Reference: id}
	vSelf, _ := k.Score(id)
	vFar, _ := k.Score(rev)
	if vSelf != 0 || vFar != -3 {
		t.Fatalf("KT criterion: self=%v far=%v", vSelf, vFar)
	}
	if k.Name() != "kt" {
		t.Error("KT name")
	}
}

func TestCriterionErrorsPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Reference of the wrong size makes the KT criterion fail.
	_, err := PostProcess(perm.Identity(5),
		Config{Theta: 1, Samples: 2, Criterion: KTCriterion{Reference: perm.Identity(4)}}, rng)
	if err == nil {
		t.Fatal("criterion error not propagated")
	}
	// Same failure on the very first sample.
	_, err = PostProcess(perm.Identity(5),
		Config{Theta: 1, Samples: 1, Criterion: KTCriterion{Reference: perm.Identity(4)}}, rng)
	if err == nil {
		t.Fatal("first-sample criterion error not propagated")
	}
}

func TestPostProcessZeroThetaIsUniform(t *testing.T) {
	// θ=0 must not privilege the central ranking: over many draws the
	// mean distance should match the uniform expectation n(n−1)/4.
	rng := rand.New(rand.NewSource(9))
	central := perm.Identity(8)
	var total float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		p, err := PostProcess(central, Config{Theta: 0, Samples: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := rankdist.KendallTau(p, central)
		total += float64(d)
	}
	mean := total / trials
	want := 8.0 * 7.0 / 4.0
	if math.Abs(mean-want) > 0.5 {
		t.Fatalf("θ=0 mean distance %v, want ≈ %v", mean, want)
	}
}
