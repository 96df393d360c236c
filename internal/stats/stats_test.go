package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDescriptives(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); !almost(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", v)
	}
	if s := StdDev(xs); !almost(s, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
	if med := Median(xs); !almost(med, 4.5, 1e-12) {
		t.Errorf("Median = %v", med)
	}
	if mx := Max(xs); mx != 9 {
		t.Errorf("Max = %v", mx)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Median(nil) != 0 {
		t.Error("empty sample should give zeros")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty Max should be −Inf")
	}
	one := []float64{3}
	if Mean(one) != 3 || Variance(one) != 0 || Median(one) != 3 {
		t.Error("singleton stats wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Quantile must not reorder the caller's slice.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestBootstrapMeanCoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() + 10
	}
	iv, err := BootstrapMean(xs, 1000, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.Point || iv.Point > iv.Hi {
		t.Fatalf("interval does not bracket point: %+v", iv)
	}
	if iv.Lo > 10 || iv.Hi < 10 {
		// 95% CI on 200 N(10,1) draws essentially always covers 10.
		t.Fatalf("interval misses true mean: %+v", iv)
	}
	width := iv.Hi - iv.Lo
	if width <= 0 || width > 1 {
		t.Fatalf("implausible CI width %v", width)
	}
}

func TestBootstrapMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	iv, err := BootstrapMedian(xs, 500, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Point != 50 {
		t.Fatalf("median point = %v", iv.Point)
	}
	if iv.Lo > 50 || iv.Hi < 50 {
		t.Fatalf("CI misses median: %+v", iv)
	}
}

func TestBootstrapValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	if _, err := Bootstrap(nil, Mean, 10, 0.9, rng); err == nil {
		t.Error("accepted empty sample")
	}
	if _, err := Bootstrap([]float64{1}, Mean, 0, 0.9, rng); err == nil {
		t.Error("accepted zero resamples")
	}
	if _, err := Bootstrap([]float64{1}, Mean, 10, 0, rng); err == nil {
		t.Error("accepted confidence 0")
	}
	if _, err := Bootstrap([]float64{1}, Mean, 10, 1, rng); err == nil {
		t.Error("accepted confidence 1")
	}
}

func TestBootstrapDeterministicGivenSeed(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3}
	a, err := Bootstrap(xs, Mean, 200, 0.95, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bootstrap(xs, Mean, 200, 0.95, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different intervals: %+v vs %+v", a, b)
	}
}
