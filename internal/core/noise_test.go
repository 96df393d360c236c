package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mallows"
	"repro/internal/perm"
)

func allNoises() []Noise {
	return []Noise{
		MallowsNoise{Theta: 1},
		GeneralizedMallowsNoise{Thetas: []float64{2, 1, 1, 0.5, 0.5, 0.2, 0.2, 0.1, 0.1, 0}},
		PlackettLuceNoise{Strength: 0.5},
	}
}

func TestNoiseSamplersProduceValidPerms(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	central := perm.Random(10, rng)
	for _, n := range allNoises() {
		draw, err := n.Sampler(central)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		for i := 0; i < 50; i++ {
			p := draw(rng)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s sample invalid: %v", n.Name(), err)
			}
			if len(p) != 10 {
				t.Fatalf("%s sample wrong size", n.Name())
			}
		}
		if n.Name() == "" {
			t.Fatal("empty noise name")
		}
	}
}

func TestNoiseSamplersRejectInvalidCentral(t *testing.T) {
	bad := perm.Perm{0, 0, 1}
	for _, n := range allNoises() {
		if _, err := n.Sampler(bad); err == nil {
			t.Errorf("%s accepted invalid central", n.Name())
		}
	}
}

func TestNoiseParameterValidation(t *testing.T) {
	central := perm.Identity(5)
	if _, err := (MallowsNoise{Theta: -1}).Sampler(central); err == nil {
		t.Error("mallows accepted negative theta")
	}
	if _, err := (GeneralizedMallowsNoise{Thetas: []float64{1}}).Sampler(central); err == nil {
		t.Error("generalized accepted wrong theta count")
	}
	if _, err := (PlackettLuceNoise{Strength: -1}).Sampler(central); err == nil {
		t.Error("plackett-luce accepted negative strength")
	}
	if _, err := (PlackettLuceNoise{Strength: math.NaN()}).Sampler(central); err == nil {
		t.Error("plackett-luce accepted NaN strength")
	}
}

func TestZeroNoiseKeepsCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	central := perm.Random(8, rng)
	cases := []Noise{
		MallowsNoise{Theta: 40},
		PlackettLuceNoise{Strength: 40},
	}
	for _, n := range cases {
		draw, err := n.Sampler(central)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if p := draw(rng); !p.Equal(central) {
				t.Fatalf("%s at zero-noise setting moved the central: %v vs %v", n.Name(), p, central)
			}
		}
	}
}

func TestPlackettLuceUniformAtZeroStrength(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	draw, err := PlackettLuceNoise{}.Sampler(perm.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	freq := map[string]int{}
	const samples = 24000
	for i := 0; i < samples; i++ {
		freq[draw(rng).String()]++
	}
	if len(freq) != 24 {
		t.Fatalf("saw %d distinct perms, want 24", len(freq))
	}
	for s, f := range freq {
		if f < 800 || f > 1200 {
			t.Fatalf("perm %s frequency %d implausible for uniform", s, f)
		}
	}
}

func TestPostProcessWith(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	central := perm.Identity(10)
	crit := KTCriterion{Reference: central}
	for _, n := range allNoises() {
		p, err := PostProcessWith(central, n, 5, crit, rng)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PostProcessWith(central, nil, 5, crit, rng); err == nil {
		t.Error("accepted nil noise")
	}
	if _, err := PostProcessWith(central, MallowsNoise{Theta: 1}, 0, crit, rng); err == nil {
		t.Error("accepted zero samples")
	}
	// nil criterion keeps the first draw.
	p1, err := PostProcessWith(central, MallowsNoise{Theta: 50}, 3, nil, rng)
	if err != nil || !p1.Equal(central) {
		t.Fatalf("nil criterion at θ=50: %v, %v", p1, err)
	}
	// Criterion errors propagate.
	badCrit := KTCriterion{Reference: perm.Identity(4)}
	if _, err := PostProcessWith(central, MallowsNoise{Theta: 1}, 2, badCrit, rng); err == nil {
		t.Error("criterion error not propagated")
	}
}

func TestPostProcessWithMatchesPostProcess(t *testing.T) {
	// PostProcessWith(MallowsNoise) and PostProcess agree draw-for-draw
	// on the same seed.
	central := perm.Identity(9)
	crit := KTCriterion{Reference: central}
	a, err := PostProcess(central, Config{Theta: 0.7, Samples: 6, Criterion: crit}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PostProcessWith(central, MallowsNoise{Theta: 0.7}, 6, crit, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("paths diverge: %v vs %v", a, b)
	}
}

func TestCalibrateTheta(t *testing.T) {
	for _, target := range []float64{1, 5, 12, 20} {
		theta, err := CalibrateTheta(12, target)
		if err != nil {
			t.Fatal(err)
		}
		got := mallows.ExpectedDistance(12, theta)
		if math.Abs(got-target) > 1e-6 {
			t.Fatalf("calibrated θ=%v gives E[d]=%v, want %v", theta, got, target)
		}
	}
	// Boundary and error cases.
	max := mallows.ExpectedDistance(12, 0)
	theta, err := CalibrateTheta(12, max)
	if err != nil || theta != 0 {
		t.Fatalf("target=max should give θ=0: %v, %v", theta, err)
	}
	if _, err := CalibrateTheta(1, 1); err == nil {
		t.Error("accepted n<2")
	}
	if _, err := CalibrateTheta(12, 0); err == nil {
		t.Error("accepted target 0")
	}
	if _, err := CalibrateTheta(12, max+1); err == nil {
		t.Error("accepted target beyond uniform mean")
	}
}
