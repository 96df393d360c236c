package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/pl"
)

// Noise is a randomization mechanism for rankings: given a central
// ranking it yields a sampler of perturbed rankings. The paper's §VI
// proposes exploring noise distributions beyond Mallows; implementations
// here cover the Mallows model (the paper's choice), its generalized
// per-position form, and Plackett–Luce sampling.
type Noise interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Sampler validates the central ranking and returns a draw function.
	Sampler(central perm.Perm) (func(*rand.Rand) perm.Perm, error)
}

// MallowsNoise draws from M(central, Theta) — the paper's mechanism.
type MallowsNoise struct {
	Theta float64
}

// Name implements Noise.
func (n MallowsNoise) Name() string { return fmt.Sprintf("mallows(θ=%g)", n.Theta) }

// Sampler implements Noise.
func (n MallowsNoise) Sampler(central perm.Perm) (func(*rand.Rand) perm.Perm, error) {
	model, err := mallows.New(central, n.Theta)
	if err != nil {
		return nil, err
	}
	return model.Sample, nil
}

// GeneralizedMallowsNoise draws from the Fligner–Verducci generalized
// Mallows model with per-position dispersions.
type GeneralizedMallowsNoise struct {
	Thetas []float64
}

// Name implements Noise.
func (n GeneralizedMallowsNoise) Name() string { return "generalized-mallows" }

// Sampler implements Noise.
func (n GeneralizedMallowsNoise) Sampler(central perm.Perm) (func(*rand.Rand) perm.Perm, error) {
	model, err := mallows.NewGeneralized(central, n.Thetas)
	if err != nil {
		return nil, err
	}
	return model.Sample, nil
}

// PlackettLuceNoise samples a Plackett–Luce ranking whose item weights
// decay exponentially with central rank: the item at central rank r
// (0-based) has weight e^{−Strength·r}. Strength 0 is the uniform
// distribution; large Strength concentrates on the central ranking.
type PlackettLuceNoise struct {
	Strength float64
}

// Name implements Noise.
func (n PlackettLuceNoise) Name() string { return fmt.Sprintf("plackett-luce(s=%g)", n.Strength) }

// Sampler implements Noise. The model has item weights
// e^{−Strength·(central rank)}; drawing works directly on the
// log-weights (internal/pl, Gumbel-max trick), so long rankings and
// large strengths cannot underflow the tail weights to zero.
func (n PlackettLuceNoise) Sampler(central perm.Perm) (func(*rand.Rand) perm.Perm, error) {
	if err := central.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(n.Strength) || n.Strength < 0 {
		return nil, fmt.Errorf("core: plackett-luce strength %v, want ≥ 0", n.Strength)
	}
	logw := make([]float64, len(central))
	for r, item := range central {
		logw[item] = -n.Strength * float64(r)
	}
	return func(rng *rand.Rand) perm.Perm { return pl.SampleLogWeights(logw, rng) }, nil
}

// PostProcessWith generalizes Algorithm 1 to any noise mechanism: draw
// samples perturbed rankings around central and keep the best under
// criterion (the first draw when criterion is nil).
func PostProcessWith(central perm.Perm, noise Noise, samples int, criterion Criterion, rng *rand.Rand) (perm.Perm, error) {
	if noise == nil {
		return nil, fmt.Errorf("core: nil noise mechanism")
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: samples = %d, want ≥ 1", samples)
	}
	draw, err := noise.Sampler(central)
	if err != nil {
		return nil, err
	}
	best := draw(rng)
	if criterion == nil {
		for i := 1; i < samples; i++ {
			draw(rng)
		}
		return best, nil
	}
	bestScore, err := criterion.Score(best)
	if err != nil {
		return nil, err
	}
	for i := 1; i < samples; i++ {
		s := draw(rng)
		v, err := criterion.Score(s)
		if err != nil {
			return nil, err
		}
		if v > bestScore {
			best, bestScore = s, v
		}
	}
	return best, nil
}
