package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mallows"
	"repro/internal/perm"
)

// allAxes lists the axis table in a fixed order, so tests that share an
// RNG across axes stay reproducible.
var allAxes = []Noise{NoiseMallows, NoiseGMallows, NoisePlackettLuce}

// reference builds axis's reference sampler, failing the test on error.
func reference(t *testing.T, axis Noise, central perm.Perm, theta float64) func(*rand.Rand) []int {
	t.Helper()
	draw, err := Axes[axis].Reference(central, theta)
	if err != nil {
		t.Fatalf("%s: %v", axis, err)
	}
	return draw
}

func TestReferenceSamplersProduceValidPerms(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	central := perm.Random(10, rng)
	for _, axis := range allAxes {
		draw := reference(t, axis, central, 1)
		for i := 0; i < 50; i++ {
			p := perm.Perm(draw(rng))
			if err := p.Validate(); err != nil {
				t.Fatalf("%s sample invalid: %v", axis, err)
			}
			if len(p) != 10 {
				t.Fatalf("%s sample wrong size", axis)
			}
		}
	}
}

func TestReferenceSamplersRejectInvalidCentral(t *testing.T) {
	bad := []int{0, 0, 1}
	for axis, a := range Axes {
		if _, err := a.Reference(bad, 1); err == nil {
			t.Errorf("%s accepted invalid central", axis)
		}
	}
}

func TestNoiseParameterValidation(t *testing.T) {
	central := perm.Identity(5)
	for axis, a := range Axes {
		for _, theta := range []float64{-1, math.NaN()} {
			if _, err := a.Reference(central, theta); err == nil {
				t.Errorf("%s accepted θ = %v", axis, theta)
			}
		}
	}
}

func TestZeroNoiseKeepsCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	central := perm.Random(8, rng)
	for _, axis := range allAxes {
		draw := reference(t, axis, central, 40)
		for i := 0; i < 20; i++ {
			if p := perm.Perm(draw(rng)); !p.Equal(central) {
				t.Fatalf("%s at zero-noise setting moved the central: %v vs %v", axis, p, central)
			}
		}
	}
}

func TestPlackettLuceUniformAtZeroStrength(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	draw := reference(t, NoisePlackettLuce, perm.Identity(4), 0)
	freq := map[string]int{}
	const samples = 24000
	for i := 0; i < samples; i++ {
		freq[perm.Perm(draw(rng)).String()]++
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
