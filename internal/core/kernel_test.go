package core

import (
	"context"
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

// A dispersion whose e^{−θ} rounds to 1 is the uniform limit: on the
// mallows and gmallows axes, the reference sampler and the engine, full
// and top-k, must draw at θ = 1e-20 exactly what they draw at θ = 0 for
// the same seed.
func TestUnderflowingThetaIsUniformLimit(t *testing.T) {
	const n = 40
	central := perm.Random(n, rand.New(rand.NewSource(73)))
	var e Engine
	engine := func(axis Noise, theta float64, k int, seed int64) perm.Perm {
		p, err := e.Plan(axis, central, theta, k)
		if err != nil {
			t.Fatalf("%s: %v", axis, err)
		}
		defer p.Release()
		got, _, err := e.Best(context.Background(), p, nil, SelectFirst, 1, 1, seed)
		if err != nil {
			t.Fatalf("%s: %v", axis, err)
		}
		return got
	}
	for _, axis := range []Noise{NoiseMallows, NoiseGMallows} {
		tiny, zero := reference(t, axis, central, 1e-20), reference(t, axis, central, 0)
		for seed := int64(0); seed < 5; seed++ {
			got := perm.Perm(tiny(rand.New(rand.NewSource(seed))))
			if want := perm.Perm(zero(rand.New(rand.NewSource(seed)))); !got.Equal(want) {
				t.Fatalf("%s reference seed=%d: θ=1e-20 drew %v, θ=0 %v", axis, seed, got, want)
			}
			for _, k := range []int{n, 10} {
				got, want := engine(axis, 1e-20, k, seed), engine(axis, 0, k, seed)
				if !got.Equal(want) {
					t.Fatalf("%s engine k=%d seed=%d: θ=1e-20 drew %v, θ=0 %v", axis, k, seed, got, want)
				}
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

// CalibrateTheta must invert ExpectedDistance down to small θ*, where
// the target sits just below the uniform mean. E is flat there
// (dE/dθ = −Var[d]), so an error of a few ulps in E moves the recovered
// θ by about ε·E/(Var·θ*) relative: the tolerance widens as θ* shrinks.
func TestCalibrateThetaRoundTrip(t *testing.T) {
	for _, n := range []int{2, 10, 100} {
		for _, c := range []struct{ theta, tol float64 }{{1e-3, 1e-9}, {1e-6, 1e-8}, {1e-9, 1e-5}} {
			got, err := CalibrateTheta(n, mallows.ExpectedDistance(n, c.theta))
			if err != nil {
				t.Errorf("n=%d θ*=%g: %v", n, c.theta, err)
			} else if math.Abs(got-c.theta) > c.tol*c.theta {
				t.Errorf("n=%d: calibrated θ = %v from E(θ*=%g), relative error %.3g > %g", n, got, c.theta, (got-c.theta)/c.theta, c.tol)
			}
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
