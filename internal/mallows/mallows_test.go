package mallows

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perm"
	"repro/internal/rankdist"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(perm.Identity(3), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := New(perm.Perm{0, 0}, 0.5); err == nil {
		t.Error("accepted invalid center")
	}
	if _, err := New(perm.Identity(3), -0.1); err == nil {
		t.Error("accepted negative theta")
	}
	if _, err := New(perm.Identity(3), math.NaN()); err == nil {
		t.Error("accepted NaN theta")
	}
}

// bruteZ sums e^{−θ·d} over all permutations of n items.
func bruteZ(n int, theta float64) float64 {
	center := perm.Identity(n)
	var z float64
	perm.All(n, func(p perm.Perm) bool {
		d, _ := rankdist.KendallTau(p, center)
		z += math.Exp(-theta * float64(d))
		return true
	})
	return z
}

func TestLogZAgainstBrute(t *testing.T) {
	for n := 1; n <= 6; n++ {
		for _, theta := range []float64{0, 0.1, 0.5, 1, 2, 5} {
			got := math.Exp(LogZ(n, theta))
			want := bruteZ(n, theta)
			if math.Abs(got-want)/want > 1e-10 {
				t.Errorf("Z(%d, %v) = %v, want %v", n, theta, got, want)
			}
		}
	}
}

func TestProbSumsToOne(t *testing.T) {
	m, err := New(perm.MustNew(2, 0, 3, 1), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	perm.All(4, func(p perm.Perm) bool {
		pr, err := m.Prob(p)
		if err != nil {
			t.Fatal(err)
		}
		sum += pr
		return true
	})
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestProbMonotoneInDistance(t *testing.T) {
	m, _ := New(perm.Identity(5), 1.2)
	pNear, _ := m.Prob(perm.MustNew(1, 0, 2, 3, 4))
	pFar, _ := m.Prob(perm.Identity(5).Reverse())
	pCenter, _ := m.Prob(perm.Identity(5))
	if !(pCenter > pNear && pNear > pFar) {
		t.Fatalf("probabilities not monotone: %v %v %v", pCenter, pNear, pFar)
	}
}

func TestDistanceCountsMahonian(t *testing.T) {
	// n=4 Mahonian numbers: 1 3 5 6 5 3 1.
	got := DistanceCounts(4)
	want := []float64{1, 3, 5, 6, 5, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("T(4,%d) = %v, want %v", i, got[i], want[i])
		}
	}
	// Row sums are n!.
	var sum float64
	for _, c := range DistanceCounts(6) {
		sum += c
	}
	if sum != 720 {
		t.Fatalf("sum T(6,·) = %v", sum)
	}
}

func TestDistanceDistribution(t *testing.T) {
	probs, err := DistanceDistribution(5, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var sum, mean float64
	for d, p := range probs {
		sum += p
		mean += float64(d) * p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distribution sums to %v", sum)
	}
	if want := ExpectedDistance(5, 0.7); math.Abs(mean-want) > 1e-10 {
		t.Fatalf("mean from distribution %v, closed form %v", mean, want)
	}
	if _, err := DistanceDistribution(-1, 1); err == nil {
		t.Error("accepted negative n")
	}
	if _, err := DistanceDistribution(3, -1); err == nil {
		t.Error("accepted negative theta")
	}
}

func TestExpectedDistanceLimits(t *testing.T) {
	// θ=0: uniform, E = n(n−1)/4.
	if got := ExpectedDistance(6, 0); got != 7.5 {
		t.Fatalf("E at θ=0 = %v", got)
	}
	// θ large: E → 0.
	if got := ExpectedDistance(6, 40); got > 1e-10 {
		t.Fatalf("E at θ=40 = %v", got)
	}
	// Monotone decreasing in θ.
	prev := math.Inf(1)
	for _, theta := range []float64{0, 0.25, 0.5, 1, 2, 4} {
		e := ExpectedDistance(10, theta)
		if e >= prev {
			t.Fatalf("E not decreasing at θ=%v: %v ≥ %v", theta, e, prev)
		}
		prev = e
	}
	if ExpectedDistance(1, 1) != 0 || ExpectedDistance(0, 1) != 0 {
		t.Fatal("degenerate sizes should give 0")
	}
}

func TestVarianceDistanceAgainstExact(t *testing.T) {
	for _, theta := range []float64{0, 0.3, 1, 2.5} {
		probs, err := DistanceDistribution(6, theta)
		if err != nil {
			t.Fatal(err)
		}
		var mean, m2 float64
		for d, p := range probs {
			mean += float64(d) * p
			m2 += float64(d) * float64(d) * p
		}
		want := m2 - mean*mean
		got := VarianceDistance(6, theta)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("Var(θ=%v) = %v, want %v", theta, got, want)
		}
	}
}

// directMoments sums step j's displacement moments straight from the
// weights e^{−θv}, v = 0…j−1: ln z, E[V_j] and Var(V_j). The v = 0 term
// is split off so that z − 1 keeps its precision at small θ.
func directMoments(j int, theta float64) (logZ, mean, variance float64) {
	var zm1, s1 float64
	for v := 1; v < j; v++ {
		w := math.Exp(-theta * float64(v))
		zm1 += w
		s1 += w * float64(v)
	}
	z := 1 + zm1
	mean = s1 / z
	variance = mean * mean / z // the v = 0 term
	for v := 1; v < j; v++ {
		d := float64(v) - mean
		variance += math.Exp(-theta*float64(v)) * d * d / z
	}
	return math.Log1p(zm1), mean, variance
}

// The closed-form moments must match direct sums over the displacement
// weights at every dispersion: at small θ, where q/(1−q) − j·q^j/(1−q^j)
// cancels catastrophically, where e^{−θ} rounds to 1, and in the e^{−θ}
// tail. The generalized model's moments on the constant schedule share
// the per-step functions and must agree too.
func TestMomentsMatchDirectSums(t *testing.T) {
	for _, n := range []int{2, 8, 50} {
		for _, theta := range []float64{0, 1e-20, 1e-10, 1e-6, 1e-3, 0.5, 3, 50} {
			var logZ, mean, variance float64
			for j := 1; j <= n; j++ {
				l, e, v := directMoments(j, theta)
				logZ, mean, variance = logZ+l, mean+e, variance+v
			}
			gm, err := NewGeneralized(perm.Identity(n), geometric(n, theta, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"LogZ", LogZ(n, theta), logZ},
				{"ExpectedDistance", ExpectedDistance(n, theta), mean},
				{"VarianceDistance", VarianceDistance(n, theta), variance},
				{"GeneralizedModel.LogZ", gm.LogZ(), logZ},
				{"GeneralizedModel.ExpectedDistance", gm.ExpectedDistance(), mean},
			} {
				if !(math.Abs(c.got-c.want) <= 1e-9*math.Abs(c.want)) {
					t.Errorf("%s(n=%d, θ=%g) = %v, direct sum %v", c.name, n, theta, c.got, c.want)
				}
			}
		}
	}
}

func TestSampleValidAndDistanceConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	m, _ := New(perm.Random(12, rng), 0.9)
	for i := 0; i < 200; i++ {
		p, d := m.SampleWithDistance(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid sample: %v", err)
		}
		kt, err := rankdist.KendallTau(p, m.Center)
		if err != nil {
			t.Fatal(err)
		}
		if kt != d {
			t.Fatalf("reported distance %d, actual %d", d, kt)
		}
	}
}

func TestSamplerMatchesExactDistribution(t *testing.T) {
	// Total-variation distance between the empirical distance histogram
	// and the exact distance distribution must be small.
	const (
		n       = 5
		theta   = 0.7
		samples = 40000
	)
	rng := rand.New(rand.NewSource(51))
	m, _ := New(perm.Identity(n), theta)
	maxD := int(MaxDistance(n))
	hist := make([]float64, maxD+1)
	for i := 0; i < samples; i++ {
		_, d := m.SampleWithDistance(rng)
		hist[d]++
	}
	exact, err := DistanceDistribution(n, theta)
	if err != nil {
		t.Fatal(err)
	}
	var tv float64
	for d := 0; d <= maxD; d++ {
		tv += math.Abs(hist[d]/samples - exact[d])
	}
	tv /= 2
	if tv > 0.015 {
		t.Fatalf("total variation distance %v too large", tv)
	}
}

func TestSamplerUniformAtThetaZero(t *testing.T) {
	const samples = 24000
	rng := rand.New(rand.NewSource(52))
	m, _ := New(perm.Identity(4), 0)
	freq := map[string]int{}
	for i := 0; i < samples; i++ {
		freq[m.Sample(rng).String()]++
	}
	if len(freq) != 24 {
		t.Fatalf("saw %d distinct permutations, want 24", len(freq))
	}
	for s, f := range freq {
		// Expected 1000 each; 5σ ≈ 155.
		if f < 800 || f > 1200 {
			t.Fatalf("perm %s frequency %d implausible for uniform", s, f)
		}
	}
}

func TestSampleMeanDistanceMatchesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, theta := range []float64{0.2, 0.5, 1, 2} {
		m, _ := New(perm.Identity(20), theta)
		const samples = 5000
		var total int64
		for i := 0; i < samples; i++ {
			_, d := m.SampleWithDistance(rng)
			total += d
		}
		got := float64(total) / samples
		want := ExpectedDistance(20, theta)
		sd := math.Sqrt(VarianceDistance(20, theta) / samples)
		if math.Abs(got-want) > 6*sd+1e-9 {
			t.Fatalf("θ=%v: mean %v, want %v ± %v", theta, got, want, 6*sd)
		}
	}
}

func TestSampleN(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	m, _ := New(perm.Identity(6), 1)
	out := m.SampleN(7, rng)
	if len(out) != 7 {
		t.Fatalf("SampleN returned %d", len(out))
	}
	for _, p := range out {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLogZConsistencyZeroThetaLimit(t *testing.T) {
	// LogZ must be continuous as θ→0: compare θ=1e-9 against θ=0.
	a := LogZ(8, 0)
	b := LogZ(8, 1e-9)
	if math.Abs(a-b) > 1e-5 {
		t.Fatalf("LogZ discontinuous at 0: %v vs %v", a, b)
	}
}
