package mallows

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
	"repro/internal/rankdist"
)

// geometric is the dispersion schedule top·decay^j over n insertion
// steps (j = 0…n−1); decay 1 is the standard model's constant θ.
func geometric(n int, top, decay float64) []float64 {
	thetas := make([]float64, n)
	t := top
	for j := range thetas {
		thetas[j] = t
		t *= decay
	}
	return thetas
}

func TestNewGeneralizedValidation(t *testing.T) {
	if _, err := NewGeneralized(perm.Identity(3), []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGeneralized(perm.Identity(3), []float64{1, 1}); err == nil {
		t.Error("accepted wrong dispersion count")
	}
	if _, err := NewGeneralized(perm.Identity(3), []float64{1, -1, 1}); err == nil {
		t.Error("accepted negative dispersion")
	}
	if _, err := NewGeneralized(perm.Identity(3), []float64{1, math.NaN(), 1}); err == nil {
		t.Error("accepted NaN dispersion")
	}
	if _, err := NewGeneralized(perm.Perm{0, 0, 1}, []float64{1, 1, 1}); err == nil {
		t.Error("accepted invalid center")
	}
}

func TestGeneralizedProbSumsToOne(t *testing.T) {
	m, err := NewGeneralized(perm.MustNew(1, 3, 0, 2), []float64{2, 0.3, 1.1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	perm.All(4, func(p perm.Perm) bool {
		lp, err := m.LogProb(p)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Exp(lp)
		return true
	})
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestGeneralizedReducesToStandard(t *testing.T) {
	center := perm.MustNew(2, 0, 1, 3)
	std, err := New(center, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGeneralized(center, geometric(4, 0.8, 1))
	if err != nil {
		t.Fatal(err)
	}
	perm.All(4, func(p perm.Perm) bool {
		a, err := std.LogProb(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen.LogProb(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-10 {
			t.Fatalf("logprob mismatch at %v: %v vs %v", p, a, b)
		}
		return true
	})
	if math.Abs(gen.ExpectedDistance()-ExpectedDistance(4, 0.8)) > 1e-10 {
		t.Fatalf("expected distance mismatch: %v vs %v",
			gen.ExpectedDistance(), ExpectedDistance(4, 0.8))
	}
}

func TestGeneralizedDisplacements(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	center := perm.Random(9, rng)
	m, err := NewGeneralized(center, geometric(9, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		p := perm.Random(9, rng)
		v, err := m.Displacements(p)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for j, d := range v {
			if d < 0 || d > j {
				t.Fatalf("V_%d = %d outside [0,%d]", j+1, d, j)
			}
			sum += int64(d)
		}
		kt, err := rankdist.KendallTau(p, center)
		if err != nil {
			t.Fatal(err)
		}
		if sum != kt {
			t.Fatalf("ΣV = %d, KT = %d", sum, kt)
		}
	}
	if _, err := m.Displacements(perm.Identity(4)); err == nil {
		t.Error("accepted size mismatch")
	}
}

func TestGeneralizedSamplerMeanDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m, err := NewGeneralized(perm.Identity(20), geometric(20, 3, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 4000
	var total int64
	for i := 0; i < samples; i++ {
		s := m.Sample(rng)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		kt, err := rankdist.KendallTau(s, m.Center)
		if err != nil {
			t.Fatal(err)
		}
		total += kt
	}
	got := float64(total) / samples
	want := m.ExpectedDistance()
	if math.Abs(got-want) > 0.05*want+1 {
		t.Fatalf("mean distance %v, want ≈ %v", got, want)
	}
}

func TestTopHeavyPreservesHeadOrder(t *testing.T) {
	// Top-heavy dispersion keeps the *relative order* of head items much
	// more reliably than that of tail items: compare concordance of the
	// adjacent pair (0,1) against the adjacent pair (10,11).
	rng := rand.New(rand.NewSource(62))
	m, err := NewGeneralized(perm.Identity(12), geometric(12, 6, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 2000
	headConcordant, tailConcordant := 0, 0
	for i := 0; i < samples; i++ {
		pos := m.Sample(rng).Positions()
		if pos[0] < pos[1] {
			headConcordant++
		}
		if pos[10] < pos[11] {
			tailConcordant++
		}
	}
	// θ_2 = 3 → pair (0,1) flips with probability e^{−3}/(1+e^{−3}) ≈ 4.7%.
	if headConcordant < samples*90/100 {
		t.Fatalf("head pair concordant only %d/%d", headConcordant, samples)
	}
	// θ_12 ≈ 0.003 → pair (10,11) is close to a coin flip.
	if tailConcordant > samples*65/100 {
		t.Fatalf("tail pair too stable: %d/%d", tailConcordant, samples)
	}
}

// The reference sampler against the model itself, past the underflow
// boundary: at n = 1,500 on the θ·0.97^j schedule (θ = 1) the steps
// from 1,230 on have e^{−θ_j} = 1, and their draws must still be
// uniform. The mean Kendall tau distance of 200 draws must lie within
// 5 standard errors of Σ_j E[V_j]. The moments are summed directly
// over v = 0…j−1 from the weights e^{−θ_j·v} (directMoments),
// independent of the closed forms.
func TestGeneralizedSampleMeanPastUnderflow(t *testing.T) {
	const n, samples = 1500, 200
	m, err := NewGeneralized(perm.Identity(n), geometric(n, 1, 0.97))
	if err != nil {
		t.Fatal(err)
	}
	var mean, variance float64
	for j := 2; j <= n; j++ {
		_, e, v := directMoments(j, m.Thetas[j-1])
		mean, variance = mean+e, variance+v
	}
	rng := rand.New(rand.NewSource(63))
	var total float64
	for i := 0; i < samples; i++ {
		kt, err := rankdist.KendallTau(m.Sample(rng), m.Center)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(kt)
	}
	got := total / samples
	if z := (got - mean) / math.Sqrt(variance/samples); math.Abs(z) > 5 {
		t.Fatalf("mean distance %.0f, model expects %.0f (z = %.1f)", got, mean, z)
	}
}
